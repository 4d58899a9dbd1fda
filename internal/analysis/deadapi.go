package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadAPI turns the hand search for dead library surface into a check:
// an exported identifier of an internal/ package, or an unexported
// package-level function or method anywhere, that no non-test code
// uses is reported. Uses are indexed over every loaded package,
// including the benchmark module (benchModule), which no analyzer lints,
// so an identifier only the benchmark calls stays. Test files are never
// loaded, so an identifier only tests use is reported: move it into a
// _test.go file of its package, or keep it under an allow that names
// the other package's test that reads it.
//
// Uses are keyed by objID, not by object: the source importer
// type-checks a dependency apart from that package's own check, so a
// use and its declaration are different objects with one ID. Struct
// fields are out of scope (gob and JSON read them by reflection). A
// method counts as used when an interface declares its name and every
// other method of that interface is in the receiver's method set; the
// interfaces are those of the loaded code, error, and the common
// standard-library ones in stdInterfaces. Names, not signatures, are
// compared, because of the two type-checks.
var DeadAPI = &Analyzer{
	Name: "deadapi",
	Doc: "report exported internal/ identifiers and unexported package-level functions " +
		"and methods that no non-test code in the root module or the benchmark module uses",
	Run: runDeadAPI,
}

// stdInterfaces lists, by package, the standard-library interfaces that
// the standard library itself calls through, so that a type satisfies
// them without the loaded code naming them: fmt prints a Stringer,
// container/heap drives a heap.Interface, net/http serves a Handler.
// One is counted only when some loaded package imports its package.
var stdInterfaces = map[string][]string{
	"container/heap": {"Interface"},
	"encoding/json":  {"Marshaler", "Unmarshaler"},
	"flag":           {"Value"},
	"fmt":            {"Stringer", "Formatter"},
	"io":             {"Reader", "Writer", "Closer"},
	"net/http":       {"Handler"},
	"sort":           {"Interface"},
}

// objID extends FuncID to every package-level object: "pkgpath.Name"
// for a type, variable or constant. It names no type arguments, so a use
// of an instantiated generic is a use of its origin.
func objID(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return FuncID(fn)
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// apiUses is deadapi's module-wide view, built once per Index.
type apiUses struct {
	used map[string]bool // objIDs some non-test code refers to
	// ifaces maps a method name to the method-name sets of the
	// interfaces that declare it.
	ifaces map[string][]map[string]bool
}

// apiUses indexes every use in the loaded packages. A declaration's
// references to itself (a recursive call, a type naming itself) and a
// method's receiver type are not uses.
func (idx *Index) apiUses() *apiUses {
	if idx.uses != nil {
		return idx.uses
	}
	u := &apiUses{used: map[string]bool{}, ifaces: map[string][]map[string]bool{}}
	u.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	imported := map[string]bool{}
	for _, pkg := range idx.pkgs {
		for _, imp := range pkg.Types.Imports() {
			if imported[imp.Path()] {
				continue
			}
			imported[imp.Path()] = true
			for _, name := range stdInterfaces[imp.Path()] {
				u.addIface(imp.Scope().Lookup(name).Type().Underlying().(*types.Interface))
			}
		}
		info := pkg.Info
		visit := func(self string) func(ast.Node) bool {
			return func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					if it, ok := info.TypeOf(n).(*types.Interface); ok {
						u.addIface(it)
					}
				case *ast.Ident:
					if obj := info.Uses[n]; isPackageLevel(obj) {
						if id := objID(obj); id != self {
							u.used[id] = true
						}
					}
				}
				return true
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					v := visit(objID(info.Defs[d.Name]))
					ast.Inspect(d.Type, v)
					if d.Body != nil {
						ast.Inspect(d.Body, v)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						self := ""
						if ts, ok := spec.(*ast.TypeSpec); ok {
							self = objID(info.Defs[ts.Name])
						}
						ast.Inspect(spec, visit(self))
					}
				}
			}
		}
	}
	idx.uses = u
	return u
}

// addIface records an interface's method names.
func (u *apiUses) addIface(it *types.Interface) {
	set := map[string]bool{}
	for i := 0; i < it.NumMethods(); i++ {
		set[it.Method(i).Name()] = true
	}
	for name := range set {
		u.ifaces[name] = append(u.ifaces[name], set)
	}
}

// satisfies reports whether an interface that declares the method's
// name has every one of its methods in the receiver's method set.
func (u *apiUses) satisfies(fn *types.Func) bool {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	recv := types.NewMethodSet(types.NewPointer(t))
	for _, set := range u.ifaces[fn.Name()] {
		all := true
		for name := range set {
			if recv.Lookup(fn.Pkg(), name) == nil {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// isPackageLevel reports whether obj is a function, method or
// package-scope type, variable or constant of a package with a path:
// the objects deadapi keys uses by. Fields, locals and builtins are not.
func isPackageLevel(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.(type) {
	case *types.Func:
		return true
	case *types.TypeName, *types.Var, *types.Const:
		return obj.Parent() == obj.Pkg().Scope()
	}
	return false
}

func runDeadAPI(pass *Pass) error {
	u := pass.Index.apiUses()
	info := pass.Pkg.Info
	library := strings.HasPrefix(pass.Pkg.Path, ModulePath+"/internal/")
	report := func(id *ast.Ident) {
		obj := info.Defs[id]
		if obj == nil || u.used[objID(obj)] {
			return
		}
		if obj.Exported() {
			pass.Reportf(id.Pos(), "%s is exported but no non-test code uses it: delete it, "+
				"move it into a _test.go file, or allow it naming the test that reads it", objID(obj))
			return
		}
		pass.Reportf(id.Pos(), "%s is used by no non-test code: delete it or move it into a _test.go file", objID(obj))
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				switch {
				case d.Recv == nil && (name == "init" || name == "main"), name == "_":
				case d.Recv != nil && u.satisfies(info.Defs[d.Name].(*types.Func)):
				case d.Name.IsExported() && !library:
				default:
					report(d.Name)
				}
			case *ast.GenDecl:
				if !library {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							report(s.Name)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								report(name)
							}
						}
					}
				}
			}
		}
	}
	return nil
}
