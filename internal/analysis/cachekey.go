package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// CacheKey turns the point-cache reflection gate test into a
// compile-time diagnostic: every exported bench.Config field must
// either be consumed by Config.key (a selector on the receiver inside
// the method body) or appear in CacheKeyExclude with a recorded
// justification. A new field that silently stays out of the key makes
// distinct configurations collide in the point cache — the worst kind
// of wrong-answer bug. The rest of a point's key is its runner id and
// index; everything else a point reads is code, which a point-cache
// directory covers by keeping each executable's rows apart.
var CacheKey = &Analyzer{
	Name: "cachekey",
	Doc: "require every exported bench.Config field to be consumed by " +
		"Config.key or explicitly excluded (the PointCache reflection gate, made structural)",
	Run: runCacheKey,
}

// CacheKeyExclude is the explicit exclusion set: exported bench.Config
// fields that deliberately stay out of the point-cache key because they
// change how a run executes or what it records, never what the tables
// say. Every entry carries its justification; the golden/parallel tests
// pin the corresponding runtime property.
var CacheKeyExclude = map[string]string{
	"Parallel": "worker count never changes point results (TestParallelDeterminism)",
	"Check":    "invariant checking observes, never steers (golden corpus runs checked)",
	"Strict":   "fail-fast variant of Check; same observer-only property",
	"Obs":      "observability sinks record, never steer (TestTraceDisabledByteIdentity)",
	"Cache":    "the cache itself cannot feed its own key",
	"Ctx":      "cancellation aborts between points; finished tables are unchanged",
}

func runCacheKey(pass *Pass) error {
	if pass.Pkg.Path == ModulePath+"/internal/bench" {
		checkConfigKey(pass)
	}
	return nil
}

// checkConfigKey verifies the consumed-or-excluded contract on the
// exported fields of bench.Config.
func checkConfigKey(pass *Pass) {
	cfgDecl := findStruct(pass, "Config")
	if cfgDecl == nil {
		return
	}
	keyFields, keyFound := keyConsumedFields(pass)
	if !keyFound {
		pass.Reportf(cfgDecl.Pos(),
			"bench.Config has no key method: the point cache cannot form content-addressed identities")
		return
	}
	declared := map[string]bool{}
	for _, field := range cfgDecl.Fields.List {
		for _, name := range field.Names {
			if !name.IsExported() {
				continue
			}
			declared[name.Name] = true
			consumed := keyFields[name.Name]
			_, excluded := CacheKeyExclude[name.Name]
			switch {
			case consumed && excluded:
				pass.Reportf(name.Pos(),
					"Config.%s is consumed by Config.key AND listed in the exclusion set: "+
						"remove it from analysis.CacheKeyExclude", name.Name)
			case !consumed && !excluded:
				pass.Reportf(name.Pos(),
					"Config.%s is not consumed by Config.key and not in the exclusion set: "+
						"distinct configs will collide in the point cache — hash it in Config.key, "+
						"or record why it cannot affect results in analysis.CacheKeyExclude",
					name.Name)
			}
		}
	}
	// A stale exclusion (field renamed or deleted) is reported once, on
	// the struct, in deterministic order.
	var stale []string
	for name := range CacheKeyExclude {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		pass.Reportf(cfgDecl.Pos(),
			"exclusion set entry %q matches no exported Config field: remove it from analysis.CacheKeyExclude", name)
	}
}

// keyConsumedFields collects the receiver-field names Config.key reads.
func keyConsumedFields(pass *Pass) (map[string]bool, bool) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "key" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recvType := pass.Pkg.Info.TypeOf(fd.Recv.List[0].Type)
			if ptr, ok := recvType.(*types.Pointer); ok {
				recvType = ptr.Elem()
			}
			named, ok := recvType.(*types.Named)
			if !ok || named.Obj().Name() != "Config" {
				continue
			}
			var recvVar types.Object
			if len(fd.Recv.List[0].Names) == 1 {
				recvVar = pass.Pkg.Info.Defs[fd.Recv.List[0].Names[0]]
			}
			used := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && recvVar != nil &&
					pass.Pkg.Info.Uses[id] == recvVar {
					used[sel.Sel.Name] = true
				}
				return true
			})
			return used, true
		}
	}
	return nil, false
}

// findStruct returns the AST struct type declared under the given name.
func findStruct(pass *Pass, name string) *ast.StructType {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}
