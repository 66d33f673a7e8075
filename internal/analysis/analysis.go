// Package analysis is woolvet: a suite of static-analysis passes that
// enforce the direct-task-stack protocol invariants the Go race
// detector cannot check. The correctness argument of the paper's
// Section III-A is an ownership discipline — Task.state is claimed only
// by owner-exchange or thief-CAS, top is owner-private, bot is
// synchronized purely by protocol convention — and disciplines of that
// kind go wrong silently. woolvet turns them into compile-time checks
// over annotations in the scheduler sources (see DESIGN.md §10 for the
// annotation vocabulary).
//
// The package is deliberately shaped like golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic, an analysistest-style golden runner)
// but is self-contained: this module has no external dependencies, so
// the driver loads and type-checks packages with the standard library
// alone (go/parser + go/types + the source importer). Porting an
// analyzer to the x/tools framework is a mechanical change of the Run
// signature.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one woolvet pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in
	// "//woolvet:allow <name>" suppressions.
	Name string

	// Doc is the one-line description printed by woolvet -list.
	Doc string

	// Run applies the pass to a single type-checked package,
	// reporting findings through pass.Report.
	Run func(pass *Pass)
}

// A Pass connects an Analyzer to the package being analyzed.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Sizes    types.Sizes

	// Ann is the package's woolvet annotation index (field tags,
	// thief roots, allow sites), computed once and shared by all
	// passes.
	Ann *Annotations

	// Ldr is the loader that produced the package, when available.
	// Flow-sensitive passes use it to see annotations on declarations
	// in other packages of the module (generated code calls into the
	// annotated core API).
	Ldr *Loader

	// Dir is the package's source directory (perfbudget shells out to
	// the compiler there). Empty for synthetic packages.
	Dir string

	diags *[]Diagnostic
}

// AnnotationsFor returns the annotation index of the package that
// declares obj: the current package's own index, or — via the loader —
// that of another module package. Nil when the annotations cannot be
// resolved (standard library, no loader).
func (p *Pass) AnnotationsFor(obj types.Object) *Annotations {
	if obj == nil || obj.Pkg() == nil || obj.Pkg() == p.Pkg {
		return p.Ann
	}
	if p.Ldr == nil {
		return nil
	}
	if sub := p.Ldr.PackageFor(obj); sub != nil {
		return sub.Annotations()
	}
	return nil
}

// FuncDirsFor returns the woolvet directives on fn's declaration,
// wherever in the module it lives.
func (p *Pass) FuncDirsFor(fn *types.Func) []Directive {
	a := p.AnnotationsFor(fn)
	if a == nil {
		return nil
	}
	return a.FuncDirs[fn]
}

// Report records a finding. Findings at positions covered by a
// matching "//woolvet:allow" suppression are dropped by the driver,
// not here, so analyzers never need to consult the allow index.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// All returns the woolvet analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicField,
		OwnerPrivate,
		LayoutGuard,
		SpawnJoin,
		Publication,
		PerfBudget,
	}
}

// ByName returns the analyzers whose names appear in names, erroring
// on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies the analyzers to a loaded package and returns
// the surviving diagnostics sorted by position. Suppression happens
// here: a diagnostic is dropped when an "//woolvet:allow <analyzer>"
// comment sits on its line or the line above, or when the enclosing
// function's doc comment carries the allow (see Annotations).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	ann := pkg.Annotations()
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Sizes:    pkg.Sizes,
			Ann:      ann,
			Ldr:      pkg.loader,
			Dir:      pkg.Dir,
			diags:    &diags,
		}
		a.Run(pass)
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ann.Allowed(d.Analyzer, pkg.Fset, d.Pos) {
			kept = append(kept, d)
		}
	}
	// Stale-suppression audit: an allow directive that suppressed
	// nothing is itself a finding — dead allows hide future
	// regressions at their site. Only meaningful when every analyzer
	// the directive names actually ran.
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, e := range ann.StaleAllows(ran) {
		kept = append(kept, Diagnostic{
			Pos:      e.pos,
			Analyzer: "allowaudit",
			Message:  fmt.Sprintf("stale suppression: no %s diagnostic is suppressed here; delete the allow", e.analyzer),
		})
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Pos != kept[j].Pos {
			return kept[i].Pos < kept[j].Pos
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}

// walkStack traverses every file in the pass, calling fn with each
// node and the stack of its ancestors (stack[0] is the *ast.File,
// stack[len-1] is the node's parent). Returning false from fn prunes
// the subtree.
func walkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			if n == nil {
				return false
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
				for _, c := range childNodes(n) {
					walk(c)
				}
				stack = stack[:len(stack)-1]
			}
			return true
		}
		walk(f)
	}
}

// childNodes returns n's immediate children in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
