package gen

import (
	"bytes"
	"strings"
	"testing"
)

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
	src, err := Generate(File{
		Package: "demo",
		Sigs: []Sig{
			{Name: "Fib", Args: 1, Batch: true},
			{Name: "Rec", Args: 2, Ctx: "*Ctx"},
		},
	})
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
		"recBody(w, t.Ctx().(*Ctx), t.Arg0(), t.Arg1())",
		"core.DefineC2[Ctx]",
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
	f, out, err := FromArgs(splitArgs("-pkg ports -out ports_gen.go -task Noop:1:batch -task Rec:1:ctx=*RecCtx"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Package != "ports" || out != "ports_gen.go" || len(f.Sigs) != 2 {
		t.Fatalf("FromArgs = %+v, %q", f, out)
	}
	if _, _, err := FromArgs(splitArgs("-pkg p -task A:1")); err == nil {
		t.Error("FromArgs accepted a missing -out")
	}
	if _, _, err := FromArgs(splitArgs("-pkg p -out x.go")); err == nil {
		t.Error("FromArgs accepted zero -task flags")
	}
}
