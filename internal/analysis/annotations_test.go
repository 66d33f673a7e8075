package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func TestParseDirectiveEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		text  string
		ok    bool
		verb  string
		args  []string
		attrs map[string]string
	}{
		{name: "basic", text: "// woolvet:owner", ok: true, verb: "owner"},
		{name: "unspaced", text: "//woolvet:thief", ok: true, verb: "thief"},
		{name: "block comment", text: "/* woolvet:owner */", ok: true, verb: "owner"},
		{name: "methods list", text: "// woolvet:atomic methods=Load,Swap",
			ok: true, verb: "atomic", attrs: map[string]string{"methods": "Load,Swap"}},
		// A bare "methods=" is kept as an empty attribute, not
		// dropped: the field is then restricted to no methods at all,
		// which atomicfield reports on first use — a loud failure
		// rather than a silently ignored typo.
		{name: "empty methods value", text: "// woolvet:atomic methods=",
			ok: true, verb: "atomic", attrs: map[string]string{"methods": ""}},
		{name: "reason is cut", text: "//woolvet:allow atomicfield ownerprivate -- why not",
			ok: true, verb: "allow", args: []string{"atomicfield", "ownerprivate"}},
		{name: "reason only", text: "//woolvet:allow -- all args eaten by the reason",
			ok: true, verb: "allow"},
		{name: "duplicate key keeps last", text: "// woolvet:cacheline group=a group=b",
			ok: true, verb: "cacheline", attrs: map[string]string{"group": "b"}},
		{name: "empty after prefix", text: "// woolvet:", ok: false},
		{name: "wrong prefix", text: "// woolvetx:owner", ok: false},
		{name: "not a directive", text: "// plain comment", ok: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, ok := parseDirective(&ast.Comment{Text: tc.text})
			if ok != tc.ok {
				t.Fatalf("parseDirective(%q) ok = %v, want %v", tc.text, ok, tc.ok)
			}
			if !ok {
				return
			}
			if d.Verb != tc.verb {
				t.Errorf("verb = %q, want %q", d.Verb, tc.verb)
			}
			if len(d.Args) != len(tc.args) {
				t.Errorf("args = %v, want %v", d.Args, tc.args)
			} else {
				for i := range tc.args {
					if d.Args[i] != tc.args[i] {
						t.Errorf("args = %v, want %v", d.Args, tc.args)
						break
					}
				}
			}
			for k, v := range tc.attrs {
				if got, ok := d.Attrs[k]; !ok || got != v {
					t.Errorf("attrs[%q] = %q (present %v), want %q", k, got, ok, v)
				}
			}
		})
	}
}

func TestMethodAllowedMalformedLists(t *testing.T) {
	for _, tc := range []struct {
		list, method string
		want         bool
	}{
		{"Load,Swap,CompareAndSwap", "Swap", true},
		{"Load,Swap", "Store", false},
		// Malformed lists degrade safely: empty elements from doubled
		// or trailing commas never match a real method name, and an
		// empty list allows nothing.
		{"Load,,Swap", "Load", true},
		{"Load,,Swap", "Store", false},
		{"Load,", "Load", true},
		{"Load,", "Store", false},
		{"", "Store", false},
		{"", "Load", false},
		// No case folding: the list must name methods exactly.
		{"load", "Load", false},
	} {
		if got := methodAllowed(tc.list, tc.method); got != tc.want {
			t.Errorf("methodAllowed(%q, %q) = %v, want %v", tc.list, tc.method, got, tc.want)
		}
	}
}

// scanSrc type-checks src (a dependency-free package) and returns its
// annotation index.
func scanSrc(t *testing.T, src string) (*token.FileSet, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "anno.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{}
	if _, err := conf.Check("anno", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return fset, ScanAnnotations(fset, []*ast.File{file}, info)
}

func TestScanAnnotationsDuplicateDirectives(t *testing.T) {
	_, ann := scanSrc(t, `package anno

type s struct {
	// woolvet:atomic methods=Swap
	// woolvet:atomic
	x int
}

// woolvet:inline
// woolvet:inline
// woolvet:noescape
func f() {}
`)
	var field *types.Var
	for v := range ann.Fields {
		if v.Name() == "x" {
			field = v
		}
	}
	if field == nil {
		t.Fatal("field x not indexed")
	}
	if n := len(ann.Fields[field]); n != 2 {
		t.Fatalf("duplicate field directives collapsed: got %d, want 2", n)
	}
	// FieldDirective resolves duplicates to the first occurrence, so
	// the restrictive methods= wins over the later bare form.
	d, ok := ann.FieldDirective(field, "atomic")
	if !ok {
		t.Fatal("FieldDirective(atomic) not found")
	}
	if d.Attrs["methods"] != "Swap" {
		t.Errorf("first directive should win: methods = %q, want Swap", d.Attrs["methods"])
	}

	var fn *types.Func
	for f := range ann.FuncDirs {
		if f.Name() == "f" {
			fn = f
		}
	}
	if fn == nil {
		t.Fatal("func f not indexed")
	}
	inline := 0
	for _, d := range ann.FuncDirs[fn] {
		if d.Verb == "inline" {
			inline++
		}
	}
	if inline != 2 {
		t.Errorf("duplicate func directives: got %d inline entries, want 2", inline)
	}
	if _, ok := ann.FuncDirective(fn, "noescape"); !ok {
		t.Error("noescape directive lost among duplicates")
	}
}

func TestStaleAllowAggregatesDuplicateAnalyzers(t *testing.T) {
	// One allow naming the same analyzer twice creates two entries at
	// the same position; the audit must report the directive once, not
	// once per entry.
	fset, ann := scanSrc(t, `package anno

//woolvet:allow atomicfield atomicfield -- doubled by mistake
func f() {}
`)
	_ = fset
	stale := ann.StaleAllows(map[string]bool{"atomicfield": true})
	if len(stale) != 1 {
		t.Fatalf("got %d stale entries, want 1 (aggregated by position+analyzer)", len(stale))
	}
	if stale[0].analyzer != "atomicfield" {
		t.Errorf("stale analyzer = %q, want atomicfield", stale[0].analyzer)
	}
}

func TestStaleAllowFuncDocDualIndexing(t *testing.T) {
	// A doc-comment allow is indexed both as a line entry and as a
	// function-span entry. A diagnostic deep in the body marks only
	// the span entry used; the audit must still treat the directive as
	// live (this was a real false-positive bug: every used func-doc
	// allow in the tree was reported stale).
	fset, ann := scanSrc(t, `package anno

//woolvet:allow atomicfield -- span suppression
func f() {
	_ = 1
	_ = 2
}
`)
	// Suppress at a position strictly inside the function body, away
	// from the directive's own line, so only the span entry is marked.
	if len(ann.allowRange) != 1 {
		t.Fatalf("got %d allow spans, want 1", len(ann.allowRange))
	}
	diagPos := ann.allowRange[0].end - 2
	if !ann.Allowed("atomicfield", fset, diagPos) {
		t.Fatal("diagnostic inside the function span was not suppressed")
	}
	if stale := ann.StaleAllows(map[string]bool{"atomicfield": true}); len(stale) != 0 {
		t.Errorf("used func-doc allow reported stale: %d entries", len(stale))
	}
}
