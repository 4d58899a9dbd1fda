package mem

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// walkHelpers are the helpers the cache's loops (walk, AccessEach,
// Contains) are written in. Each must inline: a helper that stops
// inlining costs a call per line or per set, and nothing else fails.
// fill sits at exactly the inliner's budget (cost 80 of 80 with Go
// 1.24), so one more statement, or a toolchain whose cost model counts
// it higher, tips it over.
var walkHelpers = []string{
	"zeroBytes",
	"find",
	"(*Cache).fill",
	"touch",
	"(*Cache).set",
	"(*Cache).fingerprint",
	"(*Cache).run",
}

// TestWalkHelpersInline compiles the package with -gcflags=-m and
// fails, naming the helper, when one of walkHelpers is no longer
// reported as "can inline". It builds from the module root, as
// scripts/allocbudget.sh does: the build cache replays the diagnostics
// with the paths of the directory that first compiled the package.
func TestWalkHelpersInline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler; skipped in -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(gobin, "build", "-o", os.DevNull, "-gcflags=-m", "./internal/mem")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range walkHelpers {
		re := regexp.MustCompile(`(?m)^\S*cache\.go:\d+:\d+: can inline ` + regexp.QuoteMeta(fn) + `( |$)`)
		if !re.Match(out) {
			t.Errorf("%s no longer inlines (go build -gcflags=-m=2 ./internal/mem gives its cost)", fn)
		}
	}
}
