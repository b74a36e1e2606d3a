package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked, non-test package of the module (or a fixture
// package loaded with LoadExtraDir). Test files (_test.go) are excluded by
// design: every analyzer in this suite checks production code only, and
// leaving tests out keeps the loader free of the external-test-package
// complications go/packages exists to solve.
type Package struct {
	Path      string // import path, e.g. "wise/internal/ml"
	Dir       string
	Filenames []string
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Module is the parsed and type-checked module, packages in dependency
// (topological) order.
type Module struct {
	Root     string // absolute directory containing go.mod
	ModPath  string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package

	byPath map[string]*Package
	std    types.Importer
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadModule parses and type-checks every non-test package under the module
// rooted at or above dir, using only the standard library (no go/packages):
// directories are walked directly, module-internal imports are resolved
// against the walked set, and standard-library imports come from the
// compiler's export data (with a from-source fallback).
func LoadModule(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:    root,
		ModPath: modPath,
		Fset:    token.NewFileSet(),
		byPath:  make(map[string]*Package),
	}
	m.std = importer.ForCompiler(m.Fset, "gc", nil)

	dirs, err := m.packageDirs()
	if err != nil {
		return nil, err
	}
	parsed := make(map[string]*Package) // import path -> parsed, not yet checked
	for _, d := range dirs {
		pkg, err := m.parseDir(d, m.importPathFor(d))
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			parsed[pkg.Path] = pkg
		}
	}
	order, err := topoOrder(parsed, modPath)
	if err != nil {
		return nil, err
	}
	// byPath is fully populated before any type-check so the importer can
	// resolve module-internal imports; topological order guarantees a
	// package's imports are checked (Types non-nil) before the package itself.
	for _, pkg := range parsed {
		m.byPath[pkg.Path] = pkg
	}
	for _, path := range order {
		if err := m.check(parsed[path]); err != nil {
			return nil, err
		}
		m.Packages = append(m.Packages, parsed[path])
	}
	return m, nil
}

// Lookup returns the loaded package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// LoadExtraDir parses and type-checks one directory outside the normal
// module walk (an analyzer test fixture under testdata/) as a package with
// the given synthetic import path. The fixture may import module packages;
// they resolve against the already-loaded module.
func (m *Module) LoadExtraDir(dir, importPath string) (*Package, error) {
	pkg, err := m.parseDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	if err := m.check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// LoadFixture loads a testdata fixture directory as a package. The import
// path comes from a "//lint:path <path>" directive in any of the fixture's
// files (so fixtures can opt into path-scoped analyzers like numsafety),
// defaulting to "fixture/<dirname>".
func (m *Module) LoadFixture(dir string) (*Package, error) {
	importPath := "fixture/" + filepath.Base(dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "//lint:path "); ok {
				importPath = strings.TrimSpace(rest)
			}
		}
	}
	return m.LoadExtraDir(dir, importPath)
}

// packageDirs lists every directory under the module root that may hold a
// package, skipping hidden directories and testdata.
func (m *Module) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPathFor maps a directory under the module root to its import path.
func (m *Module) importPathFor(dir string) string {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || rel == "." {
		return m.ModPath
	}
	return m.ModPath + "/" + filepath.ToSlash(rel)
}

// parseDir parses the non-test Go files of one directory. Returns nil if the
// directory holds no non-test Go files.
func (m *Module) parseDir(dir, importPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: importPath, Dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", full, err)
		}
		pkg.Filenames = append(pkg.Filenames, full)
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// check type-checks one parsed package against the module's already-checked
// packages and the standard library.
func (m *Module) check(pkg *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: &moduleImporter{m: m},
		Error:    func(error) {}, // collect via the returned error only
	}
	tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// moduleImporter resolves module-internal imports against the loaded set and
// everything else through the standard-library importer.
type moduleImporter struct {
	m *Module
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg := mi.m.byPath[path]; pkg != nil {
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: import cycle or unchecked package %s", path)
		}
		return pkg.Types, nil
	}
	if strings.HasPrefix(path, mi.m.ModPath+"/") || path == mi.m.ModPath {
		return nil, fmt.Errorf("lint: module package %s not loaded", path)
	}
	tp, err := mi.m.std.Import(path)
	if err == nil {
		return tp, nil
	}
	// Fallback: type-check the standard-library package from source (covers
	// toolchains that ship no export data for some packages).
	src := importer.ForCompiler(mi.m.Fset, "source", nil)
	tp2, err2 := src.Import(path)
	if err2 != nil {
		return nil, fmt.Errorf("lint: importing %s: %v (source fallback: %v)", path, err, err2)
	}
	return tp2, nil
}

// topoOrder sorts module package paths so every package appears after its
// module-internal imports.
func topoOrder(parsed map[string]*Package, modPath string) ([]string, error) {
	deps := make(map[string][]string, len(parsed))
	for path, pkg := range parsed {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if _, ok := parsed[ip]; ok {
					deps[path] = append(deps[path], ip)
				} else if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					return nil, fmt.Errorf("lint: %s imports %s, which has no non-test Go files", path, ip)
				}
			}
		}
	}
	const (
		white = iota // unvisited
		gray         // in progress
		black        // done
	)
	state := make(map[string]int, len(parsed))
	var order []string
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = gray
		ds := append([]string(nil), deps[path]...)
		sort.Strings(ds)
		for _, d := range ds {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(parsed))
	for p := range parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
