package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// SpawnJoin checks the Wool idiom in taskdef-generated and workload
// code: every task spawned in a function body must be joined on every
// return path, because the direct task stack's strict stack discipline
// makes an unjoined spawn a protocol violation — Pool.Run panics on
// unjoined tasks only at the root, while an interior leak silently
// corrupts top/bot bookkeeping.
//
// The analyzer recognizes the codebase's call shapes by name — method
// calls (d.Spawn*, the TaskDef idiom) and package-scope calls
// (Spawn*, the woolgen-generated idiom) alike:
//
//   - d.Spawn*(...) or Spawn*(...) as a statement increments the
//     outstanding count
//     (continuation-style spawns, whose result is returned — the
//     simulator's steal-parent frames, `return w.Spawn(...)` on
//     sim.W — manage their joins through Sync steps and are exempt);
//   - d.Join*(...) anywhere in a statement decrements it;
//   - Sync / Taskwait are barriers clearing all outstanding spawns;
//   - a loop whose body has surplus joins drains the outstanding
//     count (the spawn-loop/join-loop idiom of nqueens); spawn-surplus
//     loops are covered by the never-joins rule below, since a loop
//     may iterate zero times.
//
// The outstanding count is a lower bound and branch merges take the
// minimum, so a report means every path leaks: this deliberately
// trades a class of false negatives (asymmetric branches that join on
// one arm only) for zero false positives on correlated spawn/join
// conditionals like cholesky's mulsubStep. A second rule flags
// functions that spawn but contain no join or barrier at all.
//
// It also flags spawn arguments that capture a loop variable shared
// across iterations (declared outside the loop and assigned by its
// post statement or range clause): the spawned task runs concurrently
// with later iterations, so it may observe values from a different
// iteration. Per-iteration variables (Go >= 1.22 "for i := ..." and
// range definitions) are safe and not flagged.
//
// Functions themselves named Spawn*/Join*/Sync/Taskwait are forwarding
// shims (the sched port layer, the scheduler internals) and are
// skipped.
var SpawnJoin = &Analyzer{
	Name: "spawnjoin",
	Doc:  "every Spawn has a Join/Sync on all return paths; no shared-loop-variable capture into task arguments",
	Run:  runSpawnJoin,
}

func runSpawnJoin(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isShimName(fd.Name.Name) {
				continue
			}
			checkFuncBody(pass, fd.Name.Name, fd.Body)
		}
	}
	// Function literals are independent units (the workload bodies are
	// literals passed to Define*); analyze each body on its own.
	walkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			name := "func literal"
			if fd := enclosingFuncDecl(stack); fd != nil {
				if isShimName(fd.Name.Name) {
					return true
				}
				name = "func literal in " + fd.Name.Name
			}
			checkFuncBody(pass, name, lit.Body)
		}
		return true
	})
}

func isShimName(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "spawn") || strings.HasPrefix(lower, "join") ||
		lower == "sync" || lower == "taskwait"
}

func isSpawnName(name string) bool { return strings.HasPrefix(name, "Spawn") }
func isJoinName(name string) bool  { return strings.HasPrefix(name, "Join") }
func isBarrierName(name string) bool {
	return name == "Sync" || name == "Taskwait"
}

// pending is the abstract state: a lower bound on how many spawned
// tasks are outstanding on the current path. Branch merges take the
// minimum, making this a must-analysis: a report means every path
// reaches the return with tasks unjoined. (A may-analysis would flag
// correct code whose spawn- and join-side conditionals are correlated,
// like cholesky's mulsubStep.) The complementary never-joins rule
// catches the loop-spawn case this lower bound cannot see.
type pending struct {
	n int
}

func (p pending) unjoined() bool { return p.n > 0 }

func merge(a, b pending) pending {
	n := a.n
	if b.n < n {
		n = b.n
	}
	return pending{n: n}
}

// sjScanner walks one function body.
type sjScanner struct {
	pass  *Pass
	name  string
	loops []ast.Node // enclosing loop statements, for capture checks

	// Whole-body totals for the never-joins rule.
	spawns, joins, barriers int
}

func checkFuncBody(pass *Pass, name string, body *ast.BlockStmt) {
	s := &sjScanner{pass: pass, name: name}
	p := pending{}
	terminated := s.stmts(body.List, &p)
	if !terminated && p.unjoined() {
		s.report(body.Rbrace, p)
	}
	if s.spawns > 0 && s.joins == 0 && s.barriers == 0 {
		s.pass.Report(body.Rbrace,
			"%s spawns tasks but contains no Join or Sync/Taskwait barrier at all; the spawned tasks are never joined",
			s.name)
	}
}

func (s *sjScanner) report(pos token.Pos, p pending) {
	s.pass.Report(pos,
		"%s returns with %d unjoined spawned task(s) on every path; every Spawn must be matched by a Join (or a Sync/Taskwait barrier) on all return paths",
		s.name, p.n)
}

// stmts scans a statement list, returning whether it definitely
// terminates (ends in return or panic).
func (s *sjScanner) stmts(list []ast.Stmt, p *pending) bool {
	for _, st := range list {
		if s.stmt(st, p) {
			return true
		}
	}
	return false
}

func (s *sjScanner) stmt(st ast.Stmt, p *pending) (terminated bool) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		s.countStmt(st, p)
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt:
		s.countStmt(st, p)
	case *ast.ReturnStmt:
		s.countStmt(st, p)
		if p.unjoined() {
			s.report(st.Pos(), *p)
		}
		return true
	case *ast.BlockStmt:
		return s.stmts(st.List, p)
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt, p)
	case *ast.IfStmt:
		if st.Init != nil {
			s.countStmt(st.Init, p)
		}
		s.countExpr(st.Cond, p)
		thenP := *p
		thenTerm := s.stmts(st.Body.List, &thenP)
		elseP := *p
		elseTerm := false
		if st.Else != nil {
			elseTerm = s.stmt(st.Else, &elseP)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*p = elseP
		case elseTerm:
			*p = thenP
		default:
			*p = merge(thenP, elseP)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.countStmt(st.Init, p)
		}
		s.loop(st, st.Body, p)
	case *ast.RangeStmt:
		s.loop(st, st.Body, p)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.countStmt(st.Init, p)
		}
		s.branches(st.Body, p)
	case *ast.TypeSwitchStmt:
		s.branches(st.Body, p)
	case *ast.SelectStmt:
		s.branches(st.Body, p)
	}
	return false
}

// loop folds a loop body into the surrounding lower bound. A loop may
// iterate zero times, so spawn-surplus bodies contribute nothing to
// the must-count (the never-joins rule covers spawn loops that never
// join); join-surplus bodies may drain any number of outstanding
// spawns (the join-loop of the spawn-loop/join-loop idiom).
func (s *sjScanner) loop(loopNode ast.Node, body *ast.BlockStmt, p *pending) {
	s.loops = append(s.loops, loopNode)
	inner := pending{}
	s.stmts(body.List, &inner)
	s.loops = s.loops[:len(s.loops)-1]
	if inner.n < 0 {
		p.n += inner.n
	}
}

// branches merges the arms of a switch/select conservatively: the
// resulting state is the worst arm (and falling through with no arm
// taken).
func (s *sjScanner) branches(body *ast.BlockStmt, p *pending) {
	out := *p // no case taken
	allTerm := true
	hasArm := false
	for _, st := range body.List {
		var arm []ast.Stmt
		switch cc := st.(type) {
		case *ast.CaseClause:
			arm = cc.Body
		case *ast.CommClause:
			arm = cc.Body
		default:
			continue
		}
		hasArm = true
		armP := *p
		if !s.stmts(arm, &armP) {
			allTerm = false
			out = merge(out, armP)
		}
	}
	if hasArm && !allTerm {
		*p = out
	}
}

// countStmt counts spawn/join/barrier calls in a statement, excluding
// nested function literals (their bodies are separate units) and
// nested statements (handled by the scanner).
func (s *sjScanner) countStmt(st ast.Stmt, p *pending) {
	s.countNode(st, p, true)
}

func (s *sjScanner) countExpr(e ast.Expr, p *pending) {
	if e != nil {
		s.countNode(e, p, false)
	}
}

// countNode walks a single statement or expression subtree.
// statementSpawns controls whether spawn calls count: a spawn only
// creates an outstanding join obligation when used as a statement
// (direct style); spawns whose value is consumed are the continuation
// idiom of sim.W.Spawn.
func (s *sjScanner) countNode(n ast.Node, p *pending, statementSpawns bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			// Method calls (d.Spawn(...), the TaskDef idiom) and free
			// functions (SpawnFib(...), the woolgen-generated idiom)
			// both count: generated ports put the spawn/join surface in
			// package scope, so workload bodies calling them must keep
			// the same balance discipline.
			var name string
			switch fun := c.Fun.(type) {
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			case *ast.Ident:
				name = fun.Name
			default:
				return true
			}
			switch {
			case isBarrierName(name):
				p.n = 0
				s.barriers++
			case isJoinName(name):
				p.n--
				s.joins++
			case isSpawnName(name):
				if statementSpawns && isStatementCall(n, c) {
					p.n++
					s.spawns++
					s.checkCapture(c)
				}
			}
		}
		return true
	})
}

// isStatementCall reports whether call is the entire statement (its
// result, if any, is discarded) — n is the root node countNode was
// invoked on.
func isStatementCall(n ast.Node, call *ast.CallExpr) bool {
	es, ok := n.(*ast.ExprStmt)
	return ok && es.X == call
}

// checkCapture flags spawn arguments that capture a loop variable
// shared across iterations of an enclosing loop.
func (s *sjScanner) checkCapture(call *ast.CallExpr) {
	if len(s.loops) == 0 {
		return
	}
	shared := map[string]bool{}
	for _, loop := range s.loops {
		collectSharedLoopVars(loop, shared)
	}
	if len(shared) == 0 {
		return
	}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if id, ok := n.X.(*ast.Ident); ok && shared[id.Name] {
						s.pass.Report(n.Pos(),
							"spawn argument takes the address of loop variable %s, which is shared across iterations; the task runs concurrently with later iterations",
							id.Name)
					}
				}
			case *ast.FuncLit:
				ast.Inspect(n.Body, func(b ast.Node) bool {
					switch b := b.(type) {
					case *ast.SelectorExpr:
						// Only the base can be a captured variable;
						// b.Sel is a field/method name.
						ast.Inspect(b.X, func(x ast.Node) bool {
							if id, ok := x.(*ast.Ident); ok && shared[id.Name] {
								s.pass.Report(id.Pos(),
									"spawn argument closure captures loop variable %s, which is shared across iterations; the task runs concurrently with later iterations",
									id.Name)
							}
							return true
						})
						return false
					case *ast.Ident:
						if shared[b.Name] {
							s.pass.Report(b.Pos(),
								"spawn argument closure captures loop variable %s, which is shared across iterations; the task runs concurrently with later iterations",
								b.Name)
						}
					}
					return true
				})
				return false
			}
			return true
		})
	}
}

// collectSharedLoopVars records the loop's iteration variables that
// are declared outside the loop (assigned, not defined, by its
// clauses) — those are shared across iterations.
func collectSharedLoopVars(loop ast.Node, out map[string]bool) {
	addIdent := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			out[id.Name] = true
		}
	}
	switch loop := loop.(type) {
	case *ast.ForStmt:
		// Variables defined by the loop's own init ("for i := ...")
		// are per-iteration since Go 1.22 and therefore safe.
		defined := map[string]bool{}
		switch init := loop.Init.(type) {
		case *ast.AssignStmt:
			if init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						defined[id.Name] = true
					}
				}
			} else {
				for _, lhs := range init.Lhs {
					addIdent(lhs)
				}
			}
		}
		addShared := func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok && !defined[id.Name] {
				addIdent(id)
			}
		}
		switch post := loop.Post.(type) {
		case *ast.IncDecStmt:
			addShared(post.X)
		case *ast.AssignStmt:
			for _, lhs := range post.Lhs {
				addShared(lhs)
			}
		}
	case *ast.RangeStmt:
		if loop.Tok == token.ASSIGN {
			addIdent(loop.Key)
			addIdent(loop.Value)
		}
	}
}
