package analysis

// The perfbudget pass turns the fast path's performance envelope into
// a structural invariant. The paper's result depends on a spawn/join
// costing a handful of nanoseconds; one lost inline or one value
// spilled to the heap erases it. This pass asks the compiler
// directly: it runs "go build -gcflags=-m=2" on the package and
// checks the recorded decisions against two annotations:
//
//	//woolvet:inline    the compiler must report "can inline" for the
//	                    function (the cannot-inline reason is quoted
//	                    in the diagnostic when it does not)
//	//woolvet:noescape  no value inside the function's body may
//	                    escape to the heap ("escapes to heap" /
//	                    "moved to heap")
//
// The shell-out is skipped entirely for packages with no annotations,
// and its output is cached per directory — under Go's build cache the
// compiler replays -m output, so repeat runs are cheap. The raw logs
// are retained for "woolvet -mlog" and the CI failure artifact.

import (
	"fmt"
	"go/ast"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

var PerfBudget = &Analyzer{
	Name: "perfbudget",
	Doc:  "woolvet:inline functions must inline and woolvet:noescape functions must not allocate (go build -gcflags=-m)",
	Run:  runPerfBudget,
}

// mDiag is one parsed compiler diagnostic.
type mDiag struct {
	file string // base name
	line int
	col  int
	msg  string
}

type mResult struct {
	raw   string
	err   error
	diags []mDiag
}

var (
	mCacheMu sync.Mutex
	mCache   = map[string]*mResult{}
)

// CompilerLogs returns the raw -gcflags=-m output captured so far,
// keyed by package directory (for woolvet -mlog and the CI artifact).
func CompilerLogs() map[string]string {
	mCacheMu.Lock()
	defer mCacheMu.Unlock()
	out := make(map[string]string, len(mCache))
	for dir, res := range mCache {
		out[dir] = res.raw
	}
	return out
}

var mLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// compileM runs the compiler over the package directory once and
// parses its inlining/escape diagnostics.
func compileM(dir string) *mResult {
	mCacheMu.Lock()
	defer mCacheMu.Unlock()
	if res, ok := mCache[dir]; ok {
		return res
	}
	cmd := exec.Command("go", "build", "-gcflags=-m=2", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	res := &mResult{raw: string(out)}
	if err != nil {
		res.err = fmt.Errorf("go build -gcflags=-m=2 in %s: %v\n%s", dir, err, out)
	}
	for _, line := range strings.Split(res.raw, "\n") {
		m := mLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if strings.HasPrefix(msg, " ") {
			continue // indented -m=2 flow traces, not decisions
		}
		res.diags = append(res.diags, mDiag{
			file: filepath.Base(m[1]),
			line: atoiSafe(m[2]),
			col:  atoiSafe(m[3]),
			msg:  msg,
		})
	}
	mCache[dir] = res
	return res
}

func atoiSafe(s string) int {
	n := 0
	for _, r := range s {
		n = n*10 + int(r-'0')
	}
	return n
}

func runPerfBudget(pass *Pass) {
	type target struct {
		fd       *ast.FuncDecl
		inline   bool
		noescape bool
	}
	var targets []target
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			t := target{fd: fd}
			_, t.inline = pass.Ann.FuncDirective(fn, "inline")
			_, t.noescape = pass.Ann.FuncDirective(fn, "noescape")
			if t.inline || t.noescape {
				targets = append(targets, t)
			}
		}
	}
	if len(targets) == 0 || pass.Dir == "" {
		return
	}
	res := compileM(pass.Dir)
	if res.err != nil {
		pass.Report(pass.Files[0].Pos(), "perfbudget: %v", res.err)
		return
	}
	for _, t := range targets {
		namePos := pass.Fset.Position(t.fd.Name.Pos())
		base := filepath.Base(namePos.Filename)
		if t.inline {
			var verdict *mDiag
			for i := range res.diags {
				d := &res.diags[i]
				if d.file != base || d.line != namePos.Line {
					continue
				}
				if strings.HasPrefix(d.msg, "can inline ") {
					verdict = d
					break
				}
				if strings.HasPrefix(d.msg, "cannot inline ") {
					verdict = d
				}
			}
			switch {
			case verdict == nil:
				pass.Report(t.fd.Name.Pos(), "woolvet:inline %s: compiler recorded no inlining decision (dead code?)", t.fd.Name.Name)
			case strings.HasPrefix(verdict.msg, "cannot inline "):
				reason := verdict.msg
				if _, r, ok := strings.Cut(verdict.msg, ": "); ok {
					reason = r
				}
				pass.Report(t.fd.Name.Pos(), "woolvet:inline %s does not inline: %s", t.fd.Name.Name, reason)
			}
		}
		if t.noescape {
			start := namePos.Line
			end := pass.Fset.Position(t.fd.End()).Line
			tf := pass.Fset.File(t.fd.Pos())
			seen := map[int]bool{}
			for _, d := range res.diags {
				if d.file != base || d.line < start || d.line > end || seen[d.line] {
					continue
				}
				msg, escapes := escapeMsg(d.msg)
				if !escapes {
					continue
				}
				seen[d.line] = true
				pos := t.fd.Name.Pos()
				if d.line <= tf.LineCount() {
					pos = tf.LineStart(d.line)
				}
				pass.Report(pos, "woolvet:noescape %s: %s", t.fd.Name.Name, msg)
			}
		}
	}
}

// escapeMsg recognizes the compiler's heap-escape decisions.
func escapeMsg(msg string) (string, bool) {
	if strings.HasPrefix(msg, "moved to heap: ") {
		return msg, true
	}
	if i := strings.Index(msg, " escapes to heap"); i >= 0 {
		return msg[:i] + " escapes to heap", true
	}
	return "", false
}
