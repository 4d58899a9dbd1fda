package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
)

// Loader parses and type-checks packages with the stdlib source
// importer, sharing one FileSet and one import cache across loads so a
// dependency (including the standard library) is type-checked at most
// once per process.
type Loader struct {
	Fset *token.FileSet
	imp  types.ImporterFrom
	// listed caches the packages go list matched, by import path, so a
	// package that two loads match is checked once.
	listed map[string]*Package
}

// NewLoader returns a loader with an empty cache.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		imp:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		listed: map[string]*Package{},
	}
}

// benchModule is the nested module, relative to the root module's
// directory, whose packages use the root's internal packages: the
// repository benchmark. deadapi counts its uses; no analyzer lints it.
const benchModule = "benchmark"

// Tree loads the packages to lint, those matching patterns in the
// working directory, and the index over every package of the root
// module and of benchModule, so that deadapi sees every use whichever
// packages are linted.
func (l *Loader) Tree(patterns ...string) ([]*Package, *Index, error) {
	all, err := l.list("", ModulePath+"/...")
	if err != nil {
		return nil, nil, err
	}
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go env GOMOD: %v", err)
	}
	users, err := l.list(filepath.Join(filepath.Dir(strings.TrimSpace(string(gomod))), benchModule), "./...")
	if err != nil {
		return nil, nil, err
	}
	all = append(all, users...)
	pkgs, err := l.list("", patterns...)
	if err != nil {
		return nil, nil, err
	}
	return pkgs, NewIndex(all), nil
}

// listedPackage mirrors the `go list -json` fields the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// list expands go package patterns (e.g. "./...") in dir, or in the
// working directory when dir is empty, and loads every matched package.
// Test files are not loaded: the determinism and allocation contracts
// bind the simulator itself, while tests are free to use wall clocks,
// goroutines and unseeded randomness, and a use only a test makes is
// no use to deadapi.
func (l *Loader) list(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*Package
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list -json: %v", err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg := l.listed[lp.ImportPath]
		if pkg == nil {
			files := make([]string, len(lp.GoFiles))
			for i, f := range lp.GoFiles {
				files[i] = filepath.Join(lp.Dir, f)
			}
			var err error
			if pkg, err = l.check(lp.ImportPath, lp.Dir, files, l.imp); err != nil {
				return nil, err
			}
			l.listed[lp.ImportPath] = pkg
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses and type-checks one package.
func (l *Loader) check(pkgpath, dir string, filenames []string, imp types.ImporterFrom) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
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
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgpath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", pkgpath, err)
	}
	return &Package{
		Path:  pkgpath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
