package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path ("gowool/internal/core")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Sizes types.Sizes

	loader *Loader      // back-pointer for cross-package annotation lookup
	ann    *Annotations // lazily built by Annotations()
}

// Annotations returns the woolvet annotations scanned from this
// package's sources, building them on first use. Passes use this (via
// Pass.FuncDirs) to see directives on functions declared in other
// packages of the same module, e.g. generated code calling into an
// annotated core API.
func (p *Package) Annotations() *Annotations {
	if p.ann == nil {
		p.ann = ScanAnnotations(p.Fset, p.Files, p.Info)
	}
	return p.ann
}

// PackageFor returns the already-loaded module package that declares
// obj, or nil if obj belongs to the standard library or to a package
// this loader has not seen.
func (l *Loader) PackageFor(obj types.Object) *Package {
	if l == nil || obj == nil || obj.Pkg() == nil {
		return nil
	}
	for _, p := range l.pkgs {
		if p.Types == obj.Pkg() {
			return p
		}
	}
	return nil
}

// Loader loads and type-checks packages of the enclosing module using
// only the standard library: module-internal imports are resolved by
// walking the module tree, everything else (the standard library) goes
// through the source importer. The module has no external dependencies
// — woolvet's own design constraint — so those two cases are total.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string
	// WorkDir is the directory the loader was created in: local
	// patterns (".", "./…", "../…") resolve against it.
	WorkDir string

	std     types.Importer
	sizes   types.Sizes
	ctx     build.Context
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader for the module containing startDir,
// located by walking up to the nearest go.mod.
func NewLoader(startDir string) (*Loader, error) {
	workDir, err := filepath.Abs(startDir)
	if err != nil {
		return nil, err
	}
	for dir := workDir; ; {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			modPath := modulePath(string(data))
			if modPath == "" {
				return nil, fmt.Errorf("no module path in %s/go.mod", dir)
			}
			fset := token.NewFileSet()
			// Pin the build context to the host platform instead of
			// taking build.Default as-is: build.Default reads GOOS and
			// GOARCH from the environment, so a stray GOOS=windows
			// would silently drop files guarded by //go:build unix
			// while Sizes stayed pinned to the host — the analyzers
			// would then vet a file set no real build uses.
			ctx := build.Default
			ctx.GOOS = runtime.GOOS
			ctx.GOARCH = runtime.GOARCH
			return &Loader{
				Fset:    fset,
				ModRoot: dir,
				ModPath: modPath,
				WorkDir: workDir,
				std:     importer.ForCompiler(fset, "source", nil),
				sizes:   types.SizesFor("gc", runtime.GOARCH),
				ctx:     ctx,
				pkgs:    map[string]*Package{},
				loading: map[string]bool{},
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no go.mod found above %s", startDir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(mod string) string {
	for _, line := range strings.Split(mod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// LoadPatterns loads the packages matching the go-style patterns. As
// with go vet, a local pattern (".", "./...", "./core",
// "../workloads/...") names directories relative to WorkDir; any other
// ("...", "internal/core/...") is relative to the module root.
// Directories named testdata, or whose name starts with "." or "_",
// are skipped, as the go tool does.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		base := l.ModRoot
		if build.IsLocalImport(pat) {
			base = l.WorkDir
		}
		dir, recursive := pat, false
		if dir == "..." {
			dir, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(dir, "/..."); ok {
			dir, recursive = rest, true
		}
		root := filepath.Join(base, filepath.FromSlash(dir))
		if rel, err := filepath.Rel(l.ModRoot, root); err != nil || !filepath.IsLocal(rel) {
			return nil, fmt.Errorf("pattern %q: %s is outside the module at %s", pat, root, l.ModRoot)
		}
		if !recursive {
			dirSet[root] = true
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirSet[path] = true
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %w", pat, err)
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(dir, path)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue // directory without Go files, fine under "..."
			}
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir loads the single package in dir under the given import path
// (used by the analysistest runner for fixture packages).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	return l.load(dir, path)
}

// load parses and type-checks the package in dir. Test files are not
// loaded: woolvet checks the protocol implementation, and tests are
// free to poke at quiescent pools in ways the analyzers forbid on the
// hot paths (DESIGN.md §10).
func (l *Loader) load(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer func() { l.loading[path] = false }()

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: loaderImporter{l},
		Sizes:    l.sizes,
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		Sizes:  l.sizes,
		loader: l,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter resolves imports during type-checking: module-internal
// paths recurse into the loader, everything else is standard library
// handled by the source importer.
type loaderImporter struct{ l *Loader }

func (li loaderImporter) Import(path string) (*types.Package, error) {
	l := li.l
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		pkg, err := l.load(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
