package gen

import (
	"bytes"
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// demoSrc is a package's hand-written half: the bodies woolgen reads.
const demoSrc = `package demo

import "gowool/internal/core"

type Ctx struct{ k int64 }

func fibBody(w *core.Worker, n int64) int64 {
	if n < 2 {
		return n
	}
	SpawnFib(w, n-2)
	a := fibBody(w, n-1)
	b := JoinFib(w)
	return a + b
}

func recBody(w *core.Worker, c *Ctx, lo, hi int64) int64 {
	if hi-lo < 2 {
		return c.k
	}
	var b int64
	SpawnRec(w, c, lo, (lo+hi)/2)
	SpawnFib(w, next(lo))
	b = JoinFib(w)
	b += CallRec(w, c, (lo+hi)/2, hi)
	r := JoinRec(w)
	return b + r
}

func next(n int64) int64 { return n + 1 }
`

// demoDir writes the named files into a fresh directory and returns it.
func demoDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// demoFile declares the demo package's two signatures over dir.
func demoFile(dir string) File {
	return File{
		Package: "demo",
		Sigs: []Sig{
			{Name: "Fib", Args: 1, Batch: true},
			{Name: "Rec", Args: 2, Ctx: "*Ctx"},
		},
		Dir: dir,
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Sig
		bad  bool
	}{
		{in: "Fib:1", want: Sig{Name: "Fib", Args: 1}},
		{in: "Rec:1:ctx=*RecCtx", want: Sig{Name: "Rec", Args: 1, Ctx: "*RecCtx"}},
		{in: "Noop:1:batch", want: Sig{Name: "Noop", Args: 1, Batch: true}},
		{in: "Range:2:ctx=*RangeCtx", want: Sig{Name: "Range", Args: 2, Ctx: "*RangeCtx"}},
		{in: "Cho:3:ctx=*Mat", want: Sig{Name: "Cho", Args: 3, Ctx: "*Mat"}},
		{in: "Fib", bad: true},           // no arg count
		{in: "fib:1", bad: true},         // unexported
		{in: "Fib:0", bad: true},         // args out of range
		{in: "Fib:4", bad: true},         // args out of range
		{in: "Fib:2:batch", bad: true},   // batch requires args=1
		{in: "Fib:1:ctx=Mat", bad: true}, // ctx must be a pointer
		{in: "Fib:1:wiggle", bad: true},  // unknown option
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestGenerateEmitsDeclaredSurface(t *testing.T) {
	src, err := Generate(demoFile(demoDir(t, map[string]string{"demo.go": demoSrc})))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package demo",
		"func SpawnFib(w *core.Worker, a0 int64)",
		"func JoinFib(w *core.Worker) int64",
		"func CallFib(w *core.Worker, a0 int64) int64",
		"func SpawnFibN(w *core.Worker, base int64, n int)",
		"func JoinFibN(w *core.Worker, n int) int64",
		"func SpawnRec(w *core.Worker, c *Ctx, a0, a1 int64)",
		"recExpanded(w, t.Ctx().(*Ctx), t.Arg0(), t.Arg1())",
		"core.DefineC2[Ctx]",
		"func fibExpanded(w *core.Worker, n int64) int64",
		"func recExpanded(w *core.Worker, c *Ctx, lo, hi int64) int64",
		"a := fibExpanded(w, n-1)",
		"t.SetC2(recWrap, c, lo, (lo+hi)/2)",
		"arg := next(lo)", // a call is evaluated once, before the fast path
		"fibDef.Spawn(w, arg)",
		"b = fibExpanded(w, t.Arg0())",
		"var r int64",
		"w.SpawnPrepPrivate()",
		"w.JoinPrepPrivate()",
		"w.BatchPrepPrivate(n)",
	} {
		if !strings.Contains(string(src), want) {
			t.Errorf("generated output missing %q", want)
		}
	}
	if found, err := Verify(src); !found || err != nil {
		t.Errorf("fresh output fails provenance: found=%v err=%v", found, err)
	}
}

func TestGenerateRejectsBadDeclarations(t *testing.T) {
	if _, err := Generate(File{Package: "p"}); err == nil {
		t.Error("Generate accepted a file with no signatures")
	}
	if _, err := Generate(File{Sigs: []Sig{{Name: "A", Args: 1}}}); err == nil {
		t.Error("Generate accepted an empty package name")
	}
	if _, err := Generate(File{Package: "p", Sigs: []Sig{{Name: "A", Args: 1}, {Name: "A", Args: 2}}}); err == nil {
		t.Error("Generate accepted duplicate task names")
	}
}

func TestSealVerifyRoundTrip(t *testing.T) {
	body := []byte("package p\n\nfunc f() {}\n")
	sealed := Seal(body)
	if found, err := Verify(sealed); !found || err != nil {
		t.Fatalf("Verify(sealed): found=%v err=%v", found, err)
	}
	// A one-byte edit to the content must be caught.
	tampered := bytes.Replace(sealed, []byte("func f"), []byte("func g"), 1)
	if found, err := Verify(tampered); !found || err == nil {
		t.Fatalf("Verify(tampered): found=%v err=%v, want hash mismatch", found, err)
	}
	// Files without a marker are not woolgen outputs.
	if found, _ := Verify(body); found {
		t.Fatal("Verify claimed a marker on an unsealed file")
	}
}

// TestCommittedOutputsAreFresh is the drift gate: every woolgen
// go:generate directive in the repository's generating packages must
// reproduce its committed output byte-for-byte. A failure means the
// generator (or a declaration) changed without `go generate ./...`.
// Generating packages are discovered by walking the module, so a new
// directive joins the gate without touching this test; the known two
// are asserted present so discovery rot fails loudly.
func TestCommittedOutputsAreFresh(t *testing.T) {
	const root = "../.." // internal/gen → module root
	dirs, err := DiscoverDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, dir := range dirs {
		found[dir] = true
		n, err := VerifyDir(root + "/" + dir)
		if err != nil {
			t.Errorf("%s: %v", dir, err)
		}
		if n == 0 {
			t.Errorf("%s: no woolgen go:generate directives found; the drift gate lost its subject", dir)
		}
	}
	for _, want := range []string{
		"internal/gen/ports",
		"internal/workloads/fibw",
	} {
		if !found[want] {
			t.Errorf("discovery missed known generating package %s (have %v)", want, dirs)
		}
	}
}

func TestFromArgs(t *testing.T) {
	f, out, err := FromArgs(splitArgs("-pkg ports -out ports_gen.go -task Noop:1:batch -task Rec:1:ctx=*RecCtx"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if f.Package != "ports" || out != "ports_gen.go" || len(f.Sigs) != 2 || f.Dir != "." {
		t.Fatalf("FromArgs = %+v, %q", f, out)
	}
	if f, _, err := FromArgs(splitArgs("-pkg p -out sub/x_gen.go -task A:1"), io.Discard); err != nil || f.Dir != "sub" {
		t.Errorf("FromArgs(-out sub/x_gen.go): Dir %q, err %v; want the output's directory", f.Dir, err)
	}
	var usage bytes.Buffer
	if _, _, err := FromArgs([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) || !strings.Contains(usage.String(), "-task") {
		t.Errorf("FromArgs(-h) = %v, usage %q; want flag.ErrHelp and the flags", err, usage.String())
	}
	var msg bytes.Buffer
	if _, _, err := FromArgs(splitArgs("-pkg p -task A:1"), &msg); err == nil || !strings.Contains(msg.String(), "-out") {
		t.Errorf("FromArgs accepted a missing -out, or did not report it: err %v, output %q", err, msg.String())
	}
	if _, _, err := FromArgs(splitArgs("-pkg p -out x.go"), io.Discard); err == nil {
		t.Error("FromArgs accepted zero -task flags")
	}
}

// expandedCalls returns, for each <name>Expanded function in src, the
// Spawn<Name>/Join<Name> identifiers it still mentions.
func expandedCalls(t *testing.T, src []byte, sigs []Sig) map[string][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "out.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrappers := map[string]bool{}
	for _, s := range sigs {
		wrappers["Spawn"+s.Name], wrappers["Join"+s.Name] = true, true
	}
	found := map[string][]string{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !strings.HasSuffix(fd.Name.Name, "Expanded") {
			continue
		}
		found[fd.Name.Name] = nil
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && wrappers[id.Name] {
				found[fd.Name.Name] = append(found[fd.Name.Name], id.Name)
			}
			return true
		})
	}
	return found
}

// TestExpandedBodiesCallNoWrapper: every expanded body, in the demo and
// in the committed outputs, runs its spawns and joins in place.
func TestExpandedBodiesCallNoWrapper(t *testing.T) {
	cases := []struct {
		name string
		file func(t *testing.T) File
		want []string
	}{{
		name: "demo",
		file: func(t *testing.T) File { return demoFile(demoDir(t, map[string]string{"demo.go": demoSrc})) },
		want: []string{"fibExpanded", "recExpanded"},
	}, {
		name: "fibw",
		file: func(*testing.T) File {
			return File{Package: "fibw", Sigs: []Sig{{Name: "Fib", Args: 1}}, Dir: "../workloads/fibw"}
		},
		want: []string{"fibExpanded"},
	}, {
		name: "ports",
		file: func(*testing.T) File {
			return File{Package: "ports", Dir: "ports", Sigs: []Sig{
				{Name: "Noop", Args: 1, Batch: true},
				{Name: "Rec", Args: 1, Ctx: "*RecCtx"},
				{Name: "Range", Args: 2, Ctx: "*RangeCtx"},
			}}
		},
		want: []string{"rangeExpanded", "recExpanded"}, // noopBody spawns nothing: called as written
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := c.file(t)
			src, err := Generate(f)
			if err != nil {
				t.Fatal(err)
			}
			found := expandedCalls(t, src, f.Sigs)
			if len(found) != len(c.want) {
				t.Errorf("expanded bodies %v, want %v", found, c.want)
			}
			for _, name := range c.want {
				calls, ok := found[name]
				if !ok {
					t.Errorf("no %s in the output", name)
				}
				if len(calls) != 0 {
					t.Errorf("%s still calls %v", name, calls)
				}
			}
		})
	}
}

// TestExpandRefusesOtherForms: a Spawn or Join woolgen cannot expand is
// an error naming its file and line, never a call left in the copy.
func TestExpandRefusesOtherForms(t *testing.T) {
	const head = "package demo\n\nimport \"gowool/internal/core\"\n\n" +
		"func fibBody(w *core.Worker, n int64) int64 {\n" // line 5
	cases := []struct {
		name, body, want string
	}{
		{"join in an expression", "\tSpawnFib(w, n-2)\n\ta := fibBody(w, n-1)\n\treturn a + JoinFib(w)\n}\n",
			"demo.go:8: woolgen expands JoinFib only as"},
		{"join as an argument", "\tSpawnFib(w, n-2)\n\treturn fibBody(w, JoinFib(w))\n}\n",
			"demo.go:7: woolgen expands JoinFib only as"},
		{"join in an if header", "\tSpawnFib(w, n-2)\n\tif b := JoinFib(w); b > 0 {\n\t\treturn b\n\t}\n\treturn 0\n}\n",
			"demo.go:7: woolgen expands a spawn or join only where a statement list holds it"},
		{"spawn as a value", "\tspawn := SpawnFib\n\tspawn(w, n-2)\n\tb := JoinFib(w)\n\treturn b\n}\n",
			"demo.go:6: woolgen expands SpawnFib only as a statement"},
		{"spawn deferred", "\tdefer SpawnFib(w, n-2)\n\treturn 0\n}\n",
			"demo.go:6: woolgen expands SpawnFib only as a statement"},
		{"local shadows the slow path", "\tfibDef := n\n\tSpawnFib(w, fibDef)\n\tb := JoinFib(w)\n\treturn b\n}\n",
			"demo.go:6: fibBody uses fibDef, a name its expansion refers to"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := demoDir(t, map[string]string{"demo.go": head + c.body})
			_, err := Generate(File{Package: "demo", Sigs: []Sig{{Name: "Fib", Args: 1}}, Dir: dir})
			if err == nil {
				t.Fatal("Generate accepted the body")
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, c.want)) {
				t.Errorf("error %q, want it to contain %q", err, filepath.Join(dir, c.want))
			}
		})
	}
}

// TestDriftGateCatchesEditedBody: the drift gate regenerates from the
// bodies as they stand, so a body edited without `go generate` fails it.
func TestDriftGateCatchesEditedBody(t *testing.T) {
	const from = "../workloads/fibw"
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			src, err := os.ReadFile(filepath.Join(from, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = string(src)
		}
	}
	dir := demoDir(t, files)
	if n, err := VerifyDir(dir); n != 1 || err != nil {
		t.Fatalf("VerifyDir on the unedited copy = %d, %v; want 1, nil", n, err)
	}
	edited := strings.Replace(files["fibw.go"], "\treturn a + b\n", "\treturn b + a\n", 1)
	if edited == files["fibw.go"] {
		t.Fatal("fibw.go has no `return a + b` to edit")
	}
	if err := os.WriteFile(filepath.Join(dir, "fibw.go"), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err == nil || !strings.Contains(err.Error(), "fib_gen.go is stale") {
		t.Errorf("VerifyDir after editing fibBody: %v, want fib_gen.go reported stale", err)
	}
}
