package analysis_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the working directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}

func runAllocBudget(t *testing.T, root, allowlist string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(root, "scripts", "allocbudget.sh"), args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "ALLOWLIST="+allowlist)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("allocbudget.sh did not run: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestAllocBudgetCatchesEscape seeds a deliberate heap escape (the
// testdata/escape fixture) and asserts the script fails against an
// empty allowlist, naming the escape site — the regression the script
// exists to catch. It then regenerates the allowlist from the same
// output and asserts the check passes, proving failure came from the
// diff, not the harness.
func TestAllocBudgetCatchesEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler; skipped in -short")
	}
	root := repoRoot(t)
	allowlist := filepath.Join(t.TempDir(), "allowlist.txt")
	if err := os.WriteFile(allowlist, []byte("# empty baseline\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const pkg = "ioatsim/internal/analysis/testdata/escape"

	out, code := runAllocBudget(t, root, allowlist, pkg)
	if code != 1 {
		t.Fatalf("empty allowlist: want exit 1, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "escape.go") || !strings.Contains(out, "moved to heap") {
		t.Fatalf("failure output does not name the seeded escape site:\n%s", out)
	}

	out, code = runAllocBudget(t, root, allowlist, "-update", pkg)
	if code != 0 {
		t.Fatalf("-update: want exit 0, got %d\n%s", code, out)
	}
	out, code = runAllocBudget(t, root, allowlist, pkg)
	if code != 0 {
		t.Fatalf("after -update: want exit 0, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "0 new") {
		t.Fatalf("clean run did not report zero new escapes:\n%s", out)
	}
}

// TestAllocBudgetRealTree runs the committed allowlist against the real
// hot-path packages: the tree must introduce no escapes the allowlist
// does not know about.
func TestAllocBudgetRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler; skipped in -short")
	}
	root := repoRoot(t)
	out, code := runAllocBudget(t, root, filepath.Join(root, "testdata", "lint", "escape_allowlist.txt"))
	if code != 0 {
		t.Fatalf("committed allowlist: want exit 0, got %d\n%s", code, out)
	}
}

// TestAllocBudgetAfterPackageBuild compiles internal/mem with
// -gcflags=-m from its own directory into an empty build cache, as a
// test run there may, then runs the committed allowlist against the
// real tree with that cache. The go command replays the cached
// diagnostics with the paths it first printed (./cache.go), so the
// script must resolve them to the keys a build from the root gives.
func TestAllocBudgetAfterPackageBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler; skipped in -short")
	}
	root := repoRoot(t)
	t.Setenv("GOCACHE", t.TempDir())
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=-m", ".")
	cmd.Dir = filepath.Join(root, "internal", "mem")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build -gcflags=-m in internal/mem: %v\n%s", err, out)
	}
	out, code := runAllocBudget(t, root, filepath.Join(root, "testdata", "lint", "escape_allowlist.txt"))
	if code != 0 {
		t.Fatalf("committed allowlist after a package-directory build: want exit 0, got %d\n%s", code, out)
	}
}
