package analysis

import (
	"go/build"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLoaderPinsBuildTags is the regression test for the loader gap
// fixed in PR 8: build.ImportDir consulted build.Default, whose GOOS
// and GOARCH come from the environment, so running woolvet with a
// stray GOOS (say, during a cross-compile check) silently dropped
// files behind //go:build tags while the type sizes stayed pinned to
// the host. The loader must always load the host-default tag set.
func TestLoaderPinsBuildTags(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tagpin\n\ngo 1.22\n")
	// hostTagged compiles only for the platform running this test;
	// otherTagged is its complement. A loader honoring the host tag
	// set must pick the first and skip the second.
	write("host.go", "//go:build "+runtime.GOOS+"\n\npackage tagpin\n\nconst HostTagged = 1\n")
	write("other.go", "//go:build !"+runtime.GOOS+"\n\npackage tagpin\n\nconst OtherTagged = 1\n")
	write("common.go", "package tagpin\n\nconst Common = 1\n")

	// Simulate the stray environment: mutate build.Default the way a
	// GOOS env var set before process start would have.
	saved := build.Default.GOOS
	build.Default.GOOS = otherGOOS()
	defer func() { build.Default.GOOS = saved }()

	l, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(dir, "tagpin")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.Types.Scope().Lookup("HostTagged") == nil {
		t.Errorf("host-tagged file was not loaded: loader followed build.Default.GOOS=%s instead of runtime.GOOS=%s",
			build.Default.GOOS, runtime.GOOS)
	}
	if pkg.Types.Scope().Lookup("OtherTagged") != nil {
		t.Errorf("foreign-tagged file was loaded despite //go:build !%s", runtime.GOOS)
	}
}

// otherGOOS returns some GOOS different from the host's.
func otherGOOS() string {
	if runtime.GOOS == "windows" {
		return "linux"
	}
	return "windows"
}
