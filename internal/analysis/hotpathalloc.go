package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotpathAlloc enforces the 0 allocs/op contract on functions annotated
// //ioat:hotpath (the steady-state packet path: event scheduling,
// process/task wakes, chunk delivery, NIC rx, transport steps, DMA
// completion, batched cache pricing). It rejects the constructs that
// heap-allocate: capturing closures and method values, &T{...} /
// new / make / map and slice literals, interface boxing of non-pointer
// values, allocating string operations, and calls to functions that are
// neither //ioat:hotpath themselves nor demonstrably allocation-free.
// Unannotated callees in loaded module packages are summarized (their
// bodies walked transitively); callees the run did not load must be
// annotated so their contract is checked somewhere.
//
// Two escapes are deliberate: plain value composite literals and append
// are allowed, because the event heap and the free-lists rely on them
// (amortized-zero growth of recycled storage); scripts/allocbudget.sh
// backstops those with real compiler escape analysis, and the
// BenchmarkSteadyStatePacketPath 0 allocs/op gate backstops everything.
// Two statement classes are also exempt: guard blocks ending in panic
// (they price out failure, not the steady state) and blocks dominated
// by a non-nil check of an optional instrumentation hook (checker,
// tracer, metrics, fault plane) — the benchmarked configuration is
// exactly the one where those hooks are nil.
var HotpathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "forbid allocating constructs in //ioat:hotpath functions " +
		"(the 0 allocs/op packet-path benchmark, made structural)",
	Run: runHotpathAlloc,
}

// allocPkgs are standard-library packages whose package-level functions
// allocate in all but exotic cases. Methods are exempt (accessors on
// value types like time.Duration never allocate).
var allocPkgs = map[string]bool{
	"fmt": true, "errors": true, "strings": true, "strconv": true,
	"sort": true, "bytes": true, "bufio": true, "io": true, "os": true,
	"log": true, "reflect": true, "regexp": true, "context": true,
	"encoding/json": true, "encoding/gob": true, "encoding/binary": true,
	"math/big": true, "net": true, "net/http": true, "time": true,
}

// hotpathChecker carries one package's summarization state: its
// function bodies by FuncID (for walking unannotated callees) and a
// memo of their summaries. Checkers are cached per package on the
// Index, so a callee summarized from several callers is walked once.
type hotpathChecker struct {
	pkg   *Package
	idx   *Index
	decls map[string]*ast.FuncDecl
	memo  map[string]*allocSummary
}

// allocSummary records whether a function body directly or transitively
// contains an allocating construct.
type allocSummary struct {
	allocates bool
	what      string
	pos       token.Pos
	inFlight  bool // cycle guard: treated as clean while being computed
}

// checkerFor returns the (cached) summarizer for pkg.
func checkerFor(idx *Index, pkg *Package) *hotpathChecker {
	if c, ok := idx.hotCheckers[pkg.Path]; ok {
		return c
	}
	c := &hotpathChecker{
		pkg:   pkg,
		idx:   idx,
		decls: map[string]*ast.FuncDecl{},
		memo:  map[string]*allocSummary{},
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					c.decls[FuncID(fn)] = fd
				}
			}
		}
	}
	idx.hotCheckers[pkg.Path] = c
	return c
}

func runHotpathAlloc(pass *Pass) error {
	if pass.Index == nil {
		return nil
	}
	c := checkerFor(pass.Index, pass.Pkg)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !HasHotpathMarker(fd.Doc) {
				continue
			}
			c.walk(fd, fd.Body, func(pos token.Pos, what string) {
				pass.Reportf(pos, "%s", what)
			})
		}
	}
	return nil
}

// walk visits one annotated function body (or, in summary mode, any
// body) and reports each allocating construct through emit. It skips
// guard blocks that terminate in panic, blocks dominated by a non-nil
// instrumentation-hook check, and does not descend into nested function
// literals (the literal itself is judged instead).
func (c *hotpathChecker) walk(fd *ast.FuncDecl, body *ast.BlockStmt, emit func(token.Pos, string)) {
	info := c.pkg.Info
	// callFuns collects expressions in call position, so a method-value
	// selector that is immediately invoked is not mistaken for a bound
	// closure being materialized.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if blockPanics(n.Body) {
				// Cold failure guard: visit the condition and any else
				// arm, skip the panicking body.
				ast.Inspect(n.Cond, visit)
				if n.Else != nil {
					ast.Inspect(n.Else, visit)
				}
				return false
			}
			if c.isHookGuard(n.Cond) {
				// Instrumented-only block: it runs when an optional
				// observability/checker hook is installed, which is
				// precisely not the state the 0 allocs/op benchmark
				// measures. probeguard keeps the guard itself honest.
				if n.Init != nil {
					ast.Inspect(n.Init, visit)
				}
				if n.Else != nil {
					ast.Inspect(n.Else, visit)
				}
				return false
			}
		case *ast.GoStmt:
			emit(n.Pos(), "go statement in a hot path spawns a goroutine (and its closure allocates)")
			return false
		case *ast.FuncLit:
			if capt := capturedVar(info, fd, n); capt != "" {
				emit(n.Pos(), fmt.Sprintf(
					"closure captures %q and allocates per call: pre-bind the continuation "+
						"(package-level func + ScheduleArg, or a method value stored at construction)", capt))
			}
			return false // judged as a whole; body runs outside this path's budget
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					emit(n.Pos(), "&composite literal escapes to the heap: recycle from a pool or arena instead")
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				emit(n.Pos(), "map literal allocates: hoist the map to construction time")
			case *types.Slice:
				emit(n.Pos(), "slice literal allocates a backing array: hoist it to construction time")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !isConst(info, n) {
				if t := info.TypeOf(n); t != nil && isString(t) {
					emit(n.Pos(), "string concatenation allocates: format outside the hot path")
				}
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal && !callFuns[ast.Expr(n)] {
				emit(n.Pos(), "method value allocates a bound closure: store it once at construction")
			}
		case *ast.CallExpr:
			c.checkCall(fd, n, emit)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					c.checkBox(info.TypeOf(n.Lhs[i]), n.Rhs[i], emit)
				}
			}
		case *ast.ReturnStmt:
			if sig, ok := info.TypeOf(fd.Name).(*types.Signature); ok &&
				sig.Results() != nil && len(n.Results) == sig.Results().Len() {
				for i, res := range n.Results {
					c.checkBox(sig.Results().At(i).Type(), res, emit)
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// checkCall judges one call inside a hot function: builtin allocators,
// allocating conversions, interface-boxing arguments, and callees that
// are neither annotated nor provably clean.
func (c *hotpathChecker) checkCall(fd *ast.FuncDecl, call *ast.CallExpr, emit func(token.Pos, string)) {
	info := c.pkg.Info
	// Type conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		if src != nil && !isConst(info, call.Args[0]) {
			if (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src)) {
				emit(call.Pos(), "string<->slice conversion copies and allocates")
			}
		}
		c.checkBox(dst, call.Args[0], emit)
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "new":
				emit(call.Pos(), "new(T) allocates: recycle from a pool or arena instead")
			case "make":
				emit(call.Pos(), "make allocates: hoist the container to construction time")
			}
			return
		}
	}
	// Interface-boxing arguments, for any call form with a known
	// signature (including dynamic and func-value calls).
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && !call.Ellipsis.IsValid() {
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= sig.Params().Len()-1:
				pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			case i < sig.Params().Len():
				pt = sig.Params().At(i).Type()
			}
			c.checkBox(pt, arg, emit)
		}
	}
	fn := staticCallee(info, call)
	if fn == nil {
		return // func value: judged where the value was built
	}
	// Dynamic dispatch: the probe/observability hooks are interface
	// calls that only run in instrumented builds; the static contract
	// binds their guards (probeguard), not their bodies.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && types.IsInterface(s.Recv()) {
			return
		}
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	if strings.HasPrefix(pkg.Path(), ModulePath+"/") || pkg.Path() == ModulePath {
		id := FuncID(fn)
		if c.idx.Hotpath[id] {
			return // annotated: checked on its own
		}
		if callee := c.idx.Pkg(pkg.Path()); callee != nil {
			if sum := checkerFor(c.idx, callee).summarize(id); sum.allocates {
				emit(call.Pos(), fmt.Sprintf(
					"call to %s, which is not //ioat:hotpath and allocates (%s at %s): "+
						"annotate and fix it, or hoist the call off the hot path",
					id, sum.what, c.pkg.Fset.Position(sum.pos)))
			}
			return
		}
		emit(call.Pos(), fmt.Sprintf(
			"call to %s.%s, which is not annotated //ioat:hotpath and whose package "+
				"is not loaded in this run: annotate the callee so its allocation "+
				"contract is checked too",
			pkg.Path(), fn.Name()))
		return
	}
	if allocPkgs[pkg.Path()] && isPackageFunc(fn) {
		emit(call.Pos(), fmt.Sprintf("%s.%s allocates: hoist it off the hot path", pkg.Path(), fn.Name()))
	}
}

// summarize reports whether the unannotated function with the given
// FuncID contains an allocating construct, directly or through further
// unannotated calls. Cycles are treated as clean while unwinding.
func (c *hotpathChecker) summarize(id string) *allocSummary {
	if sum, ok := c.memo[id]; ok {
		return sum
	}
	sum := &allocSummary{inFlight: true}
	c.memo[id] = sum
	if fd, ok := c.decls[id]; ok {
		c.walk(fd, fd.Body, func(pos token.Pos, what string) {
			if !sum.allocates {
				sum.allocates = true
				sum.what = what
				sum.pos = pos
			}
		})
	}
	sum.inFlight = false
	return sum
}

// checkBox reports arg if assigning it to a slot of type dst boxes a
// non-pointer-shaped value into an interface. Pointers, channels, maps
// and funcs are pointer-shaped (the interface word holds them
// directly); constants are backed by static data; neither allocates.
func (c *hotpathChecker) checkBox(dst types.Type, arg ast.Expr, emit func(token.Pos, string)) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	if _, ok := dst.(*types.TypeParam); ok {
		return
	}
	info := c.pkg.Info
	src := info.TypeOf(arg)
	if src == nil || types.IsInterface(src) || isConst(info, arg) {
		return
	}
	switch u := src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: the interface word holds it directly
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil {
			return
		}
	}
	emit(arg.Pos(), fmt.Sprintf(
		"boxing a %s into %s allocates: pass a pooled pointer instead", src, dst))
}

// hotpathHookPtr extends the probe-guard pointer set for the purposes
// of the instrumented-block exemption: the invariant checker, the
// metrics instruments and the fault plan are also optional hooks whose
// nil (disabled) state is the one the benchmark measures.
var hotpathHookPtr = map[string]bool{
	ModulePath + "/internal/check.Checker":        true,
	ModulePath + "/internal/fault.Plan":           true,
	ModulePath + "/internal/metrics.TimeWeighted": true,
	ModulePath + "/internal/metrics.Histogram":    true,
}

// isHookGuard reports whether cond guarantees an optional
// instrumentation hook (observability, probe, fault, metrics or checker
// pointer/interface) is non-nil: a `x != nil` comparison on a hook
// type, or a conjunction with such a comparison on either side. A block
// dominated by such a guard only executes in instrumented runs.
func (c *hotpathChecker) isHookGuard(cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return c.isHookGuard(e.X) || c.isHookGuard(e.Y)
		case token.NEQ:
			var x ast.Expr
			switch {
			case isNilIdent(e.Y):
				x = e.X
			case isNilIdent(e.X):
				x = e.Y
			default:
				return false
			}
			t := c.pkg.Info.TypeOf(x)
			if t == nil {
				return false
			}
			if guardedTypeName(t) != "" {
				return true
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Pkg() != nil {
					return hotpathHookPtr[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
				}
			}
		}
	}
	return false
}

// capturedVar returns the name of a variable the literal captures from
// the enclosing function, or "" if it captures nothing (a capture-free
// literal compiles to a static func value and is allocation-free).
func capturedVar(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			found = v.Name()
		}
		return true
	})
	return found
}

// blockPanics reports whether the block's final statement is a direct
// panic call — the shape of a cold validation guard.
func blockPanics(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
