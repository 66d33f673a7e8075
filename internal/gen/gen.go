// Package gen is woolgen's generator library: it emits monomorphic
// spawn/join/steal-handler code for declared task signatures, the Go
// analogue of Wool's per-task-type generated spawn and join routines
// (paper Section III-A; DESIGN.md §13).
//
// The user writes each task body as a function named <name>Body in the
// declaring package, spawning and joining with Spawn<Name> and
// Join<Name>. For each signature the generator emits, into the same
// package:
//
//   - <name>Expanded: the body with every Spawn and Join expanded in
//     place (expand.go), as Wool's SPAWN and SYNC macros expand
//     inside the C body. The private spawn is core.SpawnPrepPrivate, a
//     monomorphic descriptor fill and core.SpawnCommitPrivate; the
//     private join is core.JoinPrepPrivate and a direct call into the
//     expanded body. Each falls back to the generic TaskDef* path (or
//     core.JoinAcquire) when the trip wire is pending, the slot is
//     public, the stack is full, or a per-event hook could fire. Go's
//     inliner would not give this through wrappers: `go build
//     -gcflags=-m=2` reports "cannot inline SpawnFib: function too
//     complex: cost 140 exceeds budget 80", and JoinFib costs 273, so
//     each private pair through them made two calls and every inline
//     join a third frame;
//   - Spawn<Name> / Join<Name>: the same fast paths as functions, for
//     code the generator does not expand (the hand-written body
//     itself, tests, benchmarks);
//   - Call<Name>: the plain recursive call into the expanded body;
//   - <name>Wrap: the steal handler a thief (or the generic join
//     path) runs, reading the arguments back out of the descriptor;
//   - optionally Spawn<Name>N / Join<Name>N: the batch pair for
//     regular loops, filling a whole window of private descriptors per
//     core.BatchPrepPrivate round so the per-spawn bookkeeping
//     amortizes over the batch.
//
// Everything generated calls the expanded body directly, which is what
// makes the fast path monomorphic: no interface values, no indirect
// calls, no escapes. A body that spawns nothing is called as written.
//
// An output's first line is the conventional "Code generated ... DO NOT
// EDIT." comment. The drift gate (drift.go) is its provenance check: it
// regenerates every declared output and byte-compares the committed
// file, so a hand-edit and a stale output fail alike.
package gen

import (
	"bytes"
	"fmt"
	"go/format"
	"sort"
	"strings"
)

// Sig declares one task signature to generate code for.
type Sig struct {
	// Name is the exported base name: Spawn<Name>, Join<Name>,
	// Call<Name>. The user body must be named <name>Body (first rune
	// lowered).
	Name string

	// Args is the number of int64 arguments (1..3).
	Args int

	// Ctx is the optional context pointer type ("*RecCtx"); the
	// descriptor carries it in its interface slot (a pointer store,
	// no allocation). Empty means no context.
	Ctx string

	// Batch additionally emits the Spawn<Name>N / Join<Name>N pair
	// (base, base+1, ..., base+n-1 argument ladder; Args must be 1).
	Batch bool
}

// File declares one generated output file.
type File struct {
	// Package is the package name of the output.
	Package string

	// Imports lists extra import paths; gowool/internal/core is
	// always imported.
	Imports []string

	// Sigs are the signatures to generate, emitted in order.
	Sigs []Sig

	// Dir is the declaring package's directory: Generate reads each
	// <name>Body from the hand-written Go files there.
	Dir string
}

// ParseSpec parses a -task flag value of the form
//
//	Name:args[:ctx=TYPE][:batch]
//
// e.g. "Fib:1", "Rec:1:ctx=*RecCtx", "Noop:1:batch".
func ParseSpec(s string) (Sig, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return Sig{}, fmt.Errorf("task spec %q: want Name:args[:ctx=TYPE][:batch]", s)
	}
	var sig Sig
	sig.Name = parts[0]
	if sig.Name == "" || sig.Name[0] < 'A' || sig.Name[0] > 'Z' {
		return Sig{}, fmt.Errorf("task spec %q: name must be exported", s)
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &sig.Args); err != nil || sig.Args < 1 || sig.Args > 3 {
		return Sig{}, fmt.Errorf("task spec %q: args must be 1..3", s)
	}
	for _, opt := range parts[2:] {
		switch {
		case strings.HasPrefix(opt, "ctx="):
			sig.Ctx = strings.TrimPrefix(opt, "ctx=")
			if !strings.HasPrefix(sig.Ctx, "*") {
				return Sig{}, fmt.Errorf("task spec %q: ctx type must be a pointer", s)
			}
		case opt == "batch":
			sig.Batch = true
		default:
			return Sig{}, fmt.Errorf("task spec %q: unknown option %q", s, opt)
		}
	}
	if sig.Batch && sig.Args != 1 {
		return Sig{}, fmt.Errorf("task spec %q: batch requires args=1", s)
	}
	return sig, nil
}

// lower returns name with its first rune lowered (Fib → fib).
func lower(name string) string {
	return strings.ToLower(name[:1]) + name[1:]
}

// body returns the user body function name for a signature.
func (s Sig) body() string { return lower(s.Name) + "Body" }

// wrap returns the steal-handler name for a signature.
func (s Sig) wrap() string { return lower(s.Name) + "Wrap" }

// def returns the generic-slow-path definition name for a signature.
func (s Sig) def() string { return lower(s.Name) + "Def" }

// params renders the int64 parameter list ("a0 int64" / "a0, a1 int64").
func (s Sig) params() string {
	names := make([]string, s.Args)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	return strings.Join(names, ", ") + " int64"
}

// argNames renders the int64 argument names ("a0" / "a0, a1").
func (s Sig) argNames() string {
	names := make([]string, s.Args)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	return strings.Join(names, ", ")
}

// taskArgs renders the descriptor accessor reads ("t.Arg0()" ...).
func (s Sig) taskArgs() string {
	names := make([]string, s.Args)
	for i := range names {
		names[i] = fmt.Sprintf("t.Arg%d()", i)
	}
	return strings.Join(names, ", ")
}

// Generate renders, formats and seals the output file.
func Generate(f File) ([]byte, error) {
	if f.Package == "" {
		return nil, fmt.Errorf("gen: empty package name")
	}
	if len(f.Sigs) == 0 {
		return nil, fmt.Errorf("gen: no task signatures")
	}
	seen := map[string]bool{}
	for _, s := range f.Sigs {
		if seen[s.Name] {
			return nil, fmt.Errorf("gen: duplicate task name %s", s.Name)
		}
		seen[s.Name] = true
	}

	bodies, bodyImports, err := readBodies(f)
	if err != nil {
		return nil, err
	}

	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	p("// Code generated by woolgen. DO NOT EDIT.\n\npackage %s\n\n", f.Package)
	imports := map[string]string{"gowool/internal/core": ""}
	for _, imp := range f.Imports {
		imports[imp] = ""
	}
	for imp, name := range bodyImports {
		imports[imp] = name
	}
	paths := make([]string, 0, len(imports))
	for imp := range imports {
		paths = append(paths, imp)
	}
	sort.Strings(paths)
	p("import (\n")
	for _, imp := range paths {
		if name := imports[imp]; name != "" {
			p("\t%s %q\n", name, imp)
		} else {
			p("\t%q\n", imp)
		}
	}
	p(")\n")

	for _, bd := range bodies {
		genSig(p, bd)
	}

	src, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("gen: formatting output: %v\n%s", err, b.Bytes())
	}
	return src, nil
}

// genSig renders one signature's routines around its body.
func genSig(p func(string, ...any), bd *body) {
	s := bd.sig
	name, body, wrap, def := s.Name, bd.call, s.wrap(), s.def()
	ctxElem := strings.TrimPrefix(s.Ctx, "*")

	// The steal handler and the generic slow-path definition.
	p("\n// %s is %s's steal handler: a thief (or the generic join\n", wrap, name)
	p("// path) reads the arguments back out of the descriptor and runs the\n// body.\n")
	if s.Ctx == "" {
		p("func %s(w *core.Worker, t *core.Task) { t.SetRes(%s(w, %s)) }\n\n", wrap, body, s.taskArgs())
		p("// %s carries %s's generic slow path: publication, overflow\n", def, name)
		p("// degradation and tracing stay on the TaskDef path.\n")
		p("// Assigned in init — a declaration initializer would be rejected as an\n")
		p("// initialization cycle through the recursive body.\n")
		p("var %s *core.TaskDef%d\n\n", def, s.Args)
		p("func init() { %s = core.Define%d(%q, %s) }\n", def, s.Args, name, body)
	} else {
		p("func %s(w *core.Worker, t *core.Task) { t.SetRes(%s(w, t.Ctx().(%s), %s)) }\n\n",
			wrap, body, s.Ctx, s.taskArgs())
		p("// %s carries %s's generic slow path: publication, overflow\n", def, name)
		p("// degradation and tracing stay on the TaskDef path.\n")
		p("// Assigned in init — a declaration initializer would be rejected as an\n")
		p("// initialization cycle through the recursive body.\n")
		p("var %s *core.TaskDefC%d[%s]\n\n", def, s.Args, ctxElem)
		p("func init() { %s = core.DefineC%d[%s](%q, %s) }\n", def, s.Args, ctxElem, name, body)
	}

	ctxParam, ctxArg, set := "", "", fmt.Sprintf("Set%d(%s", s.Args, wrap)
	if s.Ctx != "" {
		ctxParam = "c " + s.Ctx + ", "
		ctxArg = "c, "
		set = fmt.Sprintf("SetC%d(%s, c", s.Args, wrap)
	}

	// Spawn.
	p("\n// Spawn%s spawns one %s task: the private fast path fills the\n", name, name)
	p("// descriptor in place, and everything else routes through the generic\n")
	p("// TaskDef path. An expanded body runs this sequence inline; the\n")
	p("// function serves the code woolgen does not expand.\n")
	p("//\n// woolvet:noescape\n")
	p("func Spawn%s(w *core.Worker, %s%s) {\n", name, ctxParam, s.params())
	p("\tif t := w.SpawnPrepPrivate(); t != nil {\n")
	p("\t\tt.%s, %s)\n", set, s.argNames())
	p("\t\tw.SpawnCommitPrivate(t)\n\t\treturn\n\t}\n")
	p("\t%s.Spawn(w, %s%s)\n}\n", def, ctxArg, s.argNames())

	// Join.
	p("\n// Join%s joins with the most recently spawned task. Both inline\n", name)
	p("// paths call the body directly (statically); a stolen task's result is\n")
	p("// read back from the descriptor. An expanded body runs this sequence\n")
	p("// inline; the function serves the code woolgen does not expand.\n")
	p("//\n// woolvet:noescape\n")
	p("func Join%s(w *core.Worker) int64 {\n", name)
	joinCall := fmt.Sprintf("%s(w, %s)", body, s.taskArgs())
	if s.Ctx != "" {
		joinCall = fmt.Sprintf("%s(w, t.Ctx().(%s), %s)", body, s.Ctx, s.taskArgs())
	}
	p("\tif t := w.JoinPrepPrivate(); t != nil {\n\t\treturn %s\n\t}\n", joinCall)
	p("\tt, inline := w.JoinAcquire()\n")
	p("\tif inline {\n\t\treturn %s\n\t}\n", joinCall)
	p("\treturn t.Res()\n}\n")

	// Call.
	p("\n// Call%s invokes the body directly, without creating a task.\n", name)
	p("//\n// woolvet:inline\n")
	p("func Call%s(w *core.Worker, %s%s) int64 { return %s(w, %s%s) }\n",
		name, ctxParam, s.params(), body, ctxArg, s.argNames())

	// The expanded body.
	p("%s", bd.src)

	if !s.Batch {
		return
	}

	// Batch spawn/join (Args == 1).
	p("\n// Spawn%sN spawns n %s tasks with arguments base..base+n-1 in\n", name, name)
	p("// batches: each core.BatchPrepPrivate window pays the per-spawn\n")
	p("// bookkeeping once, and any slot the fast path declines falls back to\n")
	p("// the one-at-a-time spawn with its full generic semantics.\n")
	p("//\n// woolvet:noescape\n")
	p("func Spawn%sN(w *core.Worker, %sbase int64, n int) {\n", name, ctxParam)
	p("\tfor n > 0 {\n")
	p("\t\tb := w.BatchPrepPrivate(n)\n")
	p("\t\tif b == nil {\n\t\t\tSpawn%s(w, %sbase)\n\t\t\tbase++\n\t\t\tn--\n\t\t\tcontinue\n\t\t}\n", name, ctxArg)
	p("\t\tfor j := range b {\n")
	if s.Ctx == "" {
		p("\t\t\tb[j].Set1(%s, base+int64(j))\n", wrap)
	} else {
		p("\t\t\tb[j].SetC1(%s, c, base+int64(j))\n", wrap)
	}
	p("\t\t}\n")
	p("\t\tw.BatchCommitPrivate(len(b))\n")
	p("\t\tbase += int64(len(b))\n\t\tn -= len(b)\n\t}\n}\n")

	p("\n// Join%sN joins the n most recently spawned %s tasks (LIFO) and\n", name, name)
	p("// returns the sum of their results.\n")
	p("//\n// woolvet:noescape\n")
	p("func Join%sN(w *core.Worker, n int) int64 {\n", name)
	p("\tvar sum int64\n\tfor ; n > 0; n-- {\n\t\tsum += Join%s(w)\n\t}\n\treturn sum\n}\n", name)
}
