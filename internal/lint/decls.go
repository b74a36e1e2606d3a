package lint

import (
	"go/ast"
	"go/types"
)

// declOf returns the declaration, with a body, of a function or method that
// the module defines, together with the package that declares it, for
// analyzers that look into a callee's body. fn is looked up in pkg itself
// when the import paths match (a fixture package may shadow a module path),
// otherwise among the loaded module packages. It returns nil, nil for
// functions declared outside the module, for bodiless declarations, and for
// instantiations of generic functions (fn must be the declared object).
func (m *Module) declOf(pkg *Package, fn *types.Func) (*ast.FuncDecl, *Package) {
	if fn == nil || fn.Pkg() == nil {
		return nil, nil
	}
	owner := pkg
	if path := fn.Pkg().Path(); path != pkg.Path {
		if owner = m.Lookup(path); owner == nil {
			return nil, nil
		}
	}
	for _, f := range owner.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Body != nil && owner.Info.Defs[fd.Name] == fn {
				return fd, owner
			}
		}
	}
	return nil, nil
}
