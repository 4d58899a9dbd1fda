// Package analysis implements ioatlint, the project's static-analysis
// suite. It enforces, at compile time, the contracts the simulator
// otherwise enforces only at run time, and one leanness contract:
//
//   - simdeterminism: simulation packages must be reproducible — no wall
//     clock, no global math/rand, no map-iteration order, no raw
//     goroutines outside the whitelisted sweep worker pool (the golden
//     corpus is the runtime counterpart);
//   - hotpathalloc: functions annotated //ioat:hotpath must not contain
//     allocating constructs (the 0 allocs/op packet-path benchmark is
//     the runtime counterpart);
//   - probeguard: selectors on nullable observability/fault pointers
//     must be dominated by a nil check (the "disabled = one nil
//     compare" guarantee);
//   - cachekey: every exported bench.Config field must be consumed by
//     Config.key or listed in the exclusion set (the reflection gate
//     test TestPointKeyConfigSensitivity is the runtime counterpart);
//   - deadapi: every exported identifier of an internal/ package, and
//     every unexported package-level function or method, must have a
//     use in non-test code of the root module or the benchmark module
//     (a test-only accessor lives in a _test.go file).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained on the standard
// library: packages are loaded with `go list` and type-checked with the
// stdlib source importer, so the linter builds with no dependencies
// beyond the Go toolchain, and without the testing package.
//
// # Suppression
//
// A finding is suppressed by an allow comment on the flagged line or on
// the line immediately above it:
//
//	//ioatlint:allow <analyzer>[,<analyzer>...] — <reason>
//
// The separator may be "—", "--" or "-"; the reason is mandatory, so
// every deliberate exception is visible and auditable in the source. A
// malformed or unused allow comment is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of the repository. The analyzers
// key their package sets and type names off it.
const ModulePath = "ioatsim"

// HotpathMarker is the doc-comment annotation that opts a function into
// hotpathalloc checking.
const HotpathMarker = "//ioat:hotpath"

// determinismPkgs lists the packages (relative to ModulePath) whose
// code feeds simulated outcomes or exported results, and must therefore
// be deterministic. internal/rng is deliberately absent: it is the
// sanctioned seeded wrapper around math/rand. internal/sweep is
// deliberately absent from the goroutine rule's point of view — it is
// the one whitelisted worker pool — and, holding no simulation
// semantics of its own, is left out of the set entirely. internal/serve
// is a wall-clock HTTP daemon and exempt by design.
var determinismPkgs = map[string]bool{
	"internal/sim":        true,
	"internal/cpu":        true,
	"internal/mem":        true,
	"internal/nic":        true,
	"internal/tcp":        true,
	"internal/dma":        true,
	"internal/link":       true,
	"internal/msg":        true,
	"internal/fault":      true,
	"internal/host":       true,
	"internal/bench":      true,
	"internal/datacenter": true,
	"internal/pvfs":       true,
	// Result-export paths: ordering nondeterminism here corrupts
	// rendered artifacts (trace JSON, metrics CSV) even when the
	// simulation itself is sound.
	"internal/trace":   true,
	"internal/metrics": true,
	"internal/check":   true,
	"internal/stats":   true,
	"internal/ioat":    true,
	"internal/ipc":     true,
	"internal/ramfs":   true,
	"internal/cost":    true,
}

// InDeterminismSet reports whether the import path is covered by the
// simdeterminism (and probeguard) contracts.
func InDeterminismSet(pkgpath string) bool {
	rel, ok := strings.CutPrefix(pkgpath, ModulePath+"/")
	if !ok {
		return false
	}
	return determinismPkgs[rel]
}

// Diagnostic is one finding at a position, before suppression filtering.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one named check. Run reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Index    *Index

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Index is the module-wide knowledge shared by every pass: which
// functions are annotated //ioat:hotpath, across all loaded packages,
// and the loaded packages themselves so analyzers can summarize
// cross-package callees instead of demanding annotations on every
// trivially-clean accessor.
type Index struct {
	// Hotpath maps FuncID strings of annotated functions to true.
	Hotpath map[string]bool
	// pkgs maps import path to the loaded package, for cross-package
	// body summaries. A callee outside this set cannot be summarized
	// and must be annotated instead.
	pkgs map[string]*Package
	// hotCheckers caches one hotpathalloc summarizer per package.
	hotCheckers map[string]*hotpathChecker
	// uses is deadapi's use index over pkgs, built on first need.
	uses *apiUses
}

// Pkg returns the loaded package with the given import path, or nil.
func (idx *Index) Pkg(path string) *Package { return idx.pkgs[path] }

// NewIndex builds the index over the given packages.
func NewIndex(pkgs []*Package) *Index {
	idx := &Index{
		Hotpath:     map[string]bool{},
		pkgs:        map[string]*Package{},
		hotCheckers: map[string]*hotpathChecker{},
	}
	for _, pkg := range pkgs {
		idx.pkgs[pkg.Path] = pkg
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !HasHotpathMarker(fd.Doc) {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx.Hotpath[FuncID(obj)] = true
				}
			}
		}
	}
	return idx
}

// HasHotpathMarker reports whether a doc comment group contains the
// //ioat:hotpath annotation line.
func HasHotpathMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == HotpathMarker {
			return true
		}
	}
	return false
}

// FuncID returns a stable identity for a function or method:
// "pkgpath.Name" or "pkgpath.(Recv).Name".
func FuncID(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s).%s", fn.Pkg().Path(), named.Obj().Name(), fn.Name())
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// Finding is one post-suppression diagnostic with its source position
// resolved, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// All returns the full analyzer suite in report order.
func All() []*Analyzer {
	return []*Analyzer{SimDeterminism, HotpathAlloc, ProbeGuard, CacheKey, DeadAPI}
}

// Lint runs the analyzers over the packages, applies the allow-comment
// suppressions, and returns the surviving findings sorted by position.
// Malformed allow comments are always reported; unused ones only when
// checkUnused is set (pass true only when running the full suite, since
// an allow for an analyzer that did not run is trivially unused).
func Lint(pkgs []*Package, idx *Index, analyzers []*Analyzer, checkUnused bool) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		allows := collectAllows(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Index: idx}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
			for _, d := range pass.diags {
				pos := pkg.Fset.Position(d.Pos)
				if allows.suppress(a.Name, pos) {
					continue
				}
				out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
		out = append(out, allows.problems(checkUnused)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
