package gen

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The expansion. Wool's SPAWN and SYNC macros put a task's fast path
// inside the body that spawns it (paper Section III-A), so a private
// spawn/join pair costs no call. Go's inliner will not do that for the
// generated wrappers: `go build -gcflags=-m=2` reports "cannot inline
// SpawnFib: function too complex: cost 140 exceeds budget 80", and
// JoinFib costs 273, SpawnRec 149, JoinRec 285. So woolgen expands the
// body itself. It reads each <name>Body from the package's hand-written
// files and writes a copy, <name>Expanded, into the generated file, in
// which
//
//   - each `Spawn<Name>(w, args…)` statement becomes SpawnPrepPrivate,
//     the descriptor's Set*, SpawnCommitPrivate, else <name>Def.Spawn;
//   - each `v := Join<Name>(w)` or `v = Join<Name>(w)` becomes
//     JoinPrepPrivate and a direct call of the task's body, else
//     JoinAcquire and the same call, else the stolen task's t.Res();
//   - each reference to a body goes to that body's expanded copy.
//
// The generated code (Call<Name>, <name>Wrap, the TaskDef slow path and
// the joins) calls the expanded copy. A Spawn<Name> or Join<Name> used
// in any other form is refused with its file and line, so no wrapper
// call stays behind unseen. A body with nothing to expand is called as
// written and gets no copy.

// expanded returns the name of a signature's expanded body.
func (s Sig) expanded() string { return lower(s.Name) + "Expanded" }

// srcFile is one hand-written Go file of the package.
type srcFile struct {
	path string
	src  []byte
	ast  *ast.File
	tok  *token.File
}

// body is one signature's body as the package declares it.
type body struct {
	sig  Sig
	file *srcFile
	decl *ast.FuncDecl
	// call is what the generated code calls: the expanded copy when
	// the body spawns or joins a task of this file, else the body.
	call string
	// src is the expanded copy's declaration, empty when call is the
	// body itself.
	src string
}

// readBodies parses the hand-written files in f.Dir, finds each
// signature's body and expands it. It returns the bodies in f.Sigs's
// order and the imports the expanded copies use (path → explicit name,
// empty for the package's own).
func readBodies(f File) ([]*body, map[string]string, error) {
	fset := token.NewFileSet()
	files, err := readPackage(fset, f.Dir)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([]*body, len(f.Sigs))
	for i, s := range f.Sigs {
		b := &body{sig: s, call: s.body()}
		for _, sf := range files {
			for _, d := range sf.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == s.body() {
					if b.decl != nil {
						return nil, nil, fmt.Errorf("gen: %s: %s declared twice", pos(fset, fd.Pos()), s.body())
					}
					b.file, b.decl = sf, fd
				}
			}
		}
		if b.decl == nil {
			return nil, nil, fmt.Errorf("gen: no func %s in the hand-written files of %s", s.body(), f.Dir)
		}
		bodies[i] = b
	}

	// Which bodies expand decides what every body's references call,
	// so it is settled before any copy is written.
	names := map[string]bool{}
	for _, s := range f.Sigs {
		names["Spawn"+s.Name], names["Join"+s.Name] = true, true
	}
	calls := map[string]string{}
	for _, b := range bodies {
		ast.Inspect(b.decl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && names[id.Name] {
				b.call = b.sig.expanded()
			}
			return true
		})
		calls[b.sig.body()] = b.call
	}

	imports := map[string]string{}
	for _, b := range bodies {
		if b.call == b.sig.body() {
			continue
		}
		e := newExpander(fset, b.file, f.Sigs, calls)
		if b.src, err = e.expand(b); err != nil {
			return nil, nil, err
		}
		for p, name := range usedImports(b.file.ast, b.decl) {
			imports[p] = name
		}
	}
	return bodies, imports, nil
}

// readPackage parses the Go files in dir that are neither tests nor
// generated: the files a package's task bodies are written in.
func readPackage(fset *token.FileSet, dir string) ([]*srcFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("gen: reading the task bodies: %w", err)
	}
	var files []*srcFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		p := filepath.Join(dir, name)
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("gen: %w", err)
		}
		// A stale or broken output must not stop its own regeneration,
		// so a generated file is recognized from its header alone.
		head, err := parser.ParseFile(token.NewFileSet(), p, src, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("gen: %v", err)
		}
		if ast.IsGenerated(head) {
			continue
		}
		af, err := parser.ParseFile(fset, p, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("gen: %v", err)
		}
		files = append(files, &srcFile{path: p, src: src, ast: af, tok: fset.File(af.Pos())})
	}
	return files, nil
}

// pos renders a position as file:line.
func pos(fset *token.FileSet, p token.Pos) string {
	at := fset.Position(p)
	return fmt.Sprintf("%s:%d", at.Filename, at.Line)
}

// edit replaces the source in [pos, end) with repl's text.
type edit struct {
	pos, end token.Pos
	repl     func() string
}

// expander writes one body's expanded copy by splicing the body's own
// source text, so its comments and layout survive; format.Source
// re-indents the result.
type expander struct {
	fset   *token.FileSet
	file   *srcFile
	spawns map[string]Sig    // Spawn<Name> → its signature
	joins  map[string]Sig    // Join<Name> → its signature
	calls  map[string]string // <name>Body → what the expansion calls
	edits  []edit
	used   map[string]token.Pos // identifiers of the body, first use: fresh names avoid them
	t, inl string               // the expansion's descriptor and inline flag
}

func newExpander(fset *token.FileSet, file *srcFile, sigs []Sig, calls map[string]string) *expander {
	e := &expander{fset: fset, file: file, calls: calls,
		spawns: map[string]Sig{}, joins: map[string]Sig{}}
	for _, s := range sigs {
		e.spawns["Spawn"+s.Name] = s
		e.joins["Join"+s.Name] = s
	}
	return e
}

// expand returns b's expanded copy, or an error naming the file and
// line of a Spawn or Join it cannot expand.
func (e *expander) expand(b *body) (string, error) {
	fd := b.decl
	e.used = map[string]token.Pos{}
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if _, seen := e.used[id.Name]; !seen {
				e.used[id.Name] = id.Pos()
			}
		}
		return true
	})
	if err := e.checkReserved(fd); err != nil {
		return "", err
	}
	e.t, e.inl = e.fresh("t"), e.fresh("inline")

	consumed := map[*ast.Ident]bool{}
	selected := map[*ast.Ident]bool{}
	var stack []ast.Node
	var err error
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if err != nil {
			return true
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selected[n.Sel] = true
		case *ast.ExprStmt:
			if call, fun := e.callTo(n.X, e.spawns); fun != nil {
				consumed[fun] = true
				if err = e.inList(n, stack); err == nil {
					err = e.addSpawn(n, call, e.spawns[fun.Name])
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 || (n.Tok != token.DEFINE && n.Tok != token.ASSIGN) {
				break
			}
			if call, fun := e.callTo(n.Rhs[0], e.joins); fun != nil {
				consumed[fun] = true
				if err = e.inList(n, stack); err == nil {
					err = e.addJoin(n, call, e.joins[fun.Name])
				}
			}
		case *ast.Ident:
			// A Spawn or Join call the walk expands marked its name
			// consumed on the way down; any other would stay a call.
			if selected[n] || consumed[n] {
				break
			}
			if target, ok := e.calls[n.Name]; ok {
				e.edits = append(e.edits, edit{n.Pos(), n.End(), func() string { return target }})
			} else if s, ok := e.spawns[n.Name]; ok {
				err = fmt.Errorf("gen: %s: woolgen expands Spawn%s only as a statement `Spawn%s(w, …)`",
					pos(e.fset, n.Pos()), s.Name, s.Name)
			} else if s, ok := e.joins[n.Name]; ok {
				err = fmt.Errorf("gen: %s: woolgen expands Join%s only as `v := Join%s(w)` or `v = Join%s(w)`",
					pos(e.fset, n.Pos()), s.Name, s.Name, s.Name)
			}
		}
		return true
	})
	if err != nil {
		return "", err
	}

	sort.SliceStable(e.edits, func(i, j int) bool {
		if e.edits[i].pos != e.edits[j].pos {
			return e.edits[i].pos < e.edits[j].pos
		}
		return e.edits[i].end > e.edits[j].end
	})
	name := b.sig.expanded()
	var out strings.Builder
	fmt.Fprintf(&out, "\n// %s is %s (%s) with its spawns and joins expanded\n",
		name, b.sig.body(), filepath.Base(e.file.path))
	out.WriteString("// in place: a private spawn/join pair runs inside the body, with no\n")
	out.WriteString("// call but the one into the joined task. The generated code calls it\n")
	fmt.Fprintf(&out, "// wherever it would call %s.\n", b.sig.body())
	out.WriteString("//\n// woolvet:noescape\n")
	fmt.Fprintf(&out, "func %s%s\n", name, e.text(fd.Name.End(), fd.Body.End()))
	return out.String(), nil
}

// checkReserved refuses a body that uses a name its expansion refers
// to at package scope (a steal handler, a TaskDef, an expanded copy):
// a local of that name would capture the reference.
func (e *expander) checkReserved(fd *ast.FuncDecl) error {
	for _, s := range e.spawns {
		for _, name := range []string{s.wrap(), s.def(), s.expanded()} {
			if at, ok := e.used[name]; ok {
				return fmt.Errorf("gen: %s: %s uses %s, a name its expansion refers to",
					pos(e.fset, at), fd.Name.Name, name)
			}
		}
	}
	return nil
}

// fresh returns base, or base with the smallest numeric suffix, that
// the body does not already use.
func (e *expander) fresh(base string) string {
	name := base
	for i := 1; ; i++ {
		if _, ok := e.used[name]; !ok {
			break
		}
		name = base + strconv.Itoa(i)
	}
	e.used[name] = token.NoPos
	return name
}

// callTo reports whether x calls one of names directly, returning the
// call and its function identifier.
func (e *expander) callTo(x ast.Expr, names map[string]Sig) (*ast.CallExpr, *ast.Ident) {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	if _, ok := names[fun.Name]; !ok {
		return nil, nil
	}
	return call, fun
}

// inList refuses a site that does not stand in a statement list (an
// if, for or switch header), where an if statement cannot go.
func (e *expander) inList(n ast.Stmt, stack []ast.Node) error {
	switch stack[len(stack)-2].(type) {
	case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
		return nil
	}
	return fmt.Errorf("gen: %s: woolgen expands a spawn or join only where a statement list holds it, not in a statement header",
		pos(e.fset, n.Pos()))
}

// args renders a call's arguments for use in several places. An
// argument that only reads is repeated as written; one that calls is
// evaluated once, before the fast path, into a fresh variable (a call
// that spawns would move the slot the fast path claimed), and pre
// holds those assignments, in the call's order.
func (e *expander) args(call *ast.CallExpr) (texts []string, pre string) {
	var b strings.Builder
	for _, a := range call.Args {
		text := e.text(a.Pos(), a.End())
		if !pure(a) {
			v := e.fresh("arg")
			fmt.Fprintf(&b, "%s := %s\n", v, text)
			text = v
		} else if len(texts) == 0 {
			// The worker becomes a method receiver: keep its operators bound.
			switch a.(type) {
			case *ast.Ident, *ast.SelectorExpr:
			default:
				text = "(" + text + ")"
			}
		}
		texts = append(texts, text)
	}
	return texts, b.String()
}

// addSpawn records the expansion of a `Spawn<Name>(w, args…)` statement.
func (e *expander) addSpawn(stmt *ast.ExprStmt, call *ast.CallExpr, s Sig) error {
	want := 1 + s.Args
	if s.Ctx != "" {
		want++
	}
	if len(call.Args) != want || call.Ellipsis.IsValid() {
		return fmt.Errorf("gen: %s: Spawn%s takes %d arguments", pos(e.fset, call.Pos()), s.Name, want)
	}
	set := fmt.Sprintf("Set%d", s.Args)
	if s.Ctx != "" {
		set = fmt.Sprintf("SetC%d", s.Args)
	}
	e.edits = append(e.edits, edit{stmt.Pos(), stmt.End(), func() string {
		texts, pre := e.args(call)
		w, t := texts[0], e.t
		var b strings.Builder
		if pre != "" {
			b.WriteString("{\n" + pre)
		}
		fmt.Fprintf(&b, "if %s := %s.SpawnPrepPrivate(); %s != nil {\n", t, w, t)
		fmt.Fprintf(&b, "%s.%s(%s, %s)\n", t, set, s.wrap(), strings.Join(texts[1:], ", "))
		fmt.Fprintf(&b, "%s.SpawnCommitPrivate(%s)\n", w, t)
		fmt.Fprintf(&b, "} else {\n%s.Spawn(%s)\n}", s.def(), strings.Join(texts, ", "))
		if pre != "" {
			b.WriteString("\n}")
		}
		return b.String()
	}})
	return nil
}

// addJoin records the expansion of a `v := Join<Name>(w)` or
// `v = Join<Name>(w)` assignment.
func (e *expander) addJoin(stmt *ast.AssignStmt, call *ast.CallExpr, s Sig) error {
	if len(call.Args) != 1 || call.Ellipsis.IsValid() {
		return fmt.Errorf("gen: %s: Join%s takes 1 argument", pos(e.fset, call.Pos()), s.Name)
	}
	lhs := stmt.Lhs[0]
	if !pure(lhs) {
		return fmt.Errorf("gen: %s: woolgen expands `v = Join%s(w)` only when v makes no call",
			pos(e.fset, lhs.Pos()), s.Name)
	}
	e.edits = append(e.edits, edit{stmt.Pos(), stmt.End(), func() string {
		v := e.text(lhs.Pos(), lhs.End())
		texts, pre := e.args(call)
		w, t := texts[0], e.t
		args := make([]string, 0, 1+s.Args)
		if s.Ctx != "" {
			args = append(args, fmt.Sprintf("%s.Ctx().(%s)", t, s.Ctx))
		}
		for i := 0; i < s.Args; i++ {
			args = append(args, fmt.Sprintf("%s.Arg%d()", t, i))
		}
		run := fmt.Sprintf("%s = %s(%s, %s)", v, e.calls[s.body()], w, strings.Join(args, ", "))
		var b strings.Builder
		if stmt.Tok == token.DEFINE {
			fmt.Fprintf(&b, "var %s int64\n", v)
		}
		if pre != "" {
			b.WriteString("{\n" + pre)
		}
		fmt.Fprintf(&b, "if %s := %s.JoinPrepPrivate(); %s != nil {\n%s\n", t, w, t, run)
		fmt.Fprintf(&b, "} else if %s, %s := %s.JoinAcquire(); %s {\n%s\n", t, e.inl, w, e.inl, run)
		fmt.Fprintf(&b, "} else {\n%s = %s.Res()\n}", v, t)
		if pre != "" {
			b.WriteString("\n}")
		}
		return b.String()
	}})
	return nil
}

// text returns the body's source in [from, to) with every edit inside
// it applied. An edit nested in one already applied was applied by it.
func (e *expander) text(from, to token.Pos) string {
	src := e.file.src
	off := e.file.tok.Offset
	var b strings.Builder
	at := from
	for _, ed := range e.edits {
		if ed.pos < at || ed.end > to {
			continue
		}
		b.Write(src[off(at):off(ed.pos)])
		b.WriteString(ed.repl())
		at = ed.end
	}
	b.Write(src[off(at):off(to)])
	return b.String()
}

// pure reports whether evaluating x only reads: evaluating it twice,
// or after the fast path's checks, gives what the call would have seen.
func pure(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return pure(x.X)
	case *ast.SelectorExpr:
		return pure(x.X)
	case *ast.StarExpr:
		return pure(x.X)
	case *ast.UnaryExpr:
		return x.Op != token.ARROW && pure(x.X)
	case *ast.BinaryExpr:
		return pure(x.X) && pure(x.Y)
	case *ast.IndexExpr:
		return pure(x.X) && pure(x.Index)
	}
	return false
}

// usedImports returns the imports of f that decl refers to, path →
// explicit name (empty when the import names none).
func usedImports(f *ast.File, decl *ast.FuncDecl) map[string]string {
	byName := map[string]*ast.ImportSpec{}
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		byName[name] = spec
	}
	used := map[string]string{}
	ast.Inspect(decl, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if spec, ok := byName[id.Name]; ok {
				p, _ := strconv.Unquote(spec.Path.Value)
				used[p] = ""
				if spec.Name != nil {
					used[p] = spec.Name.Name
				}
			}
		}
		return true
	})
	return used
}
