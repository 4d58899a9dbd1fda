package analysis

import (
	"strings"
	"testing"
)

// The fixture tests load each testdata/src directory under a chosen
// module import path (so path-gated analyzers fire) and diff findings
// against the fixtures' `// want` expectations. Every analyzer has at
// least one caught violation and one accepted suppression.

func TestSimDeterminismFixture(t *testing.T) {
	RunFixture(t, SimDeterminism, "testdata/src/simdeterminism", ModulePath+"/internal/sim")
}

func TestHotpathAllocFixture(t *testing.T) {
	RunFixture(t, HotpathAlloc, "testdata/src/hotpathalloc", ModulePath+"/internal/hotfixture")
}

func TestProbeGuardFixture(t *testing.T) {
	RunFixture(t, ProbeGuard, "testdata/src/probeguard", ModulePath+"/internal/host")
}

func TestCacheKeyConfigFixture(t *testing.T) {
	RunFixture(t, CacheKey, "testdata/src/cachekey_bench", ModulePath+"/internal/bench")
}

func TestCacheKeyNoKeyMethodFixture(t *testing.T) {
	RunFixture(t, CacheKey, "testdata/src/cachekey_nokey", ModulePath+"/internal/bench")
}

// TestDeadAPIFixture loads a library, a second root package that uses
// it, and a stand-in for the benchmark module, which is indexed for
// uses but not linted.
func TestDeadAPIFixture(t *testing.T) {
	runFixtures(t, DeadAPI,
		[]dirPkg{
			{"testdata/src/deadapi/lib", ModulePath + "/internal/deadlib"},
			{"testdata/src/deadapi/cmd", ModulePath + "/cmd/deaduser"},
		},
		[]dirPkg{{"testdata/src/deadapi/bench", ModulePath + "/benchmark"}},
		true)
}

// TestAllowAudit checks the suppression grammar's own diagnostics:
// malformed comments are always findings; an allow that suppresses
// nothing is reported only when the full suite runs (checkUnused).
func TestAllowAudit(t *testing.T) {
	pkgs, err := fixtureLoader.dirs(dirPkg{"testdata/src/allowaudit", ModulePath + "/internal/allowaudit"})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := Lint(pkgs, NewIndex(pkgs), All(), true)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var malformed, unused int
	for _, f := range findings {
		switch {
		case strings.Contains(f.Message, "malformed allow comment"):
			malformed++
		case strings.Contains(f.Message, "unused allow comment"):
			unused++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if malformed != 2 || unused != 1 {
		t.Errorf("got %d malformed + %d unused findings, want 2 + 1:\n%s",
			malformed, unused, FormatFindings(findings))
	}

	// A partial run cannot distinguish an unused allow from one aimed
	// at a skipped analyzer, so only malformed comments survive.
	findings, err = Lint(pkgs, NewIndex(pkgs), []*Analyzer{SimDeterminism}, false)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, f := range findings {
		if strings.Contains(f.Message, "unused allow comment") {
			t.Errorf("unused-allow finding on a partial run: %s", f)
		}
	}
}

// TestParseAllow pins the grammar corner cases directly.
func TestParseAllow(t *testing.T) {
	cases := []struct {
		text      string
		analyzers string
		reason    string
		malformed bool
	}{
		{"//ioatlint:allow probeguard — hook installed at construction", "probeguard", "hook installed at construction", false},
		{"//ioatlint:allow a,b -- two analyzers, ascii dash", "a,b", "two analyzers, ascii dash", false},
		{"//ioatlint:allow cachekey - single dash", "cachekey", "single dash", false},
		{"//ioatlint:allow", "", "", true},
		{"//ioatlint:allow probeguard", "", "", true},
		{"//ioatlint:allowprobeguard — glued", "", "", true},
	}
	for _, c := range cases {
		analyzers, reason, malformed := parseAllow(c.text)
		if (malformed != "") != c.malformed {
			t.Errorf("parseAllow(%q): malformed = %q, want malformed=%v", c.text, malformed, c.malformed)
			continue
		}
		if c.malformed {
			continue
		}
		if got := strings.Join(analyzers, ","); got != c.analyzers {
			t.Errorf("parseAllow(%q): analyzers = %q, want %q", c.text, got, c.analyzers)
		}
		if reason != c.reason {
			t.Errorf("parseAllow(%q): reason = %q, want %q", c.text, reason, c.reason)
		}
	}
}

// TestRealTreeClean runs the full suite over the actual module — the
// same invocation `make lint` gates CI on, with the benchmark module
// loaded for deadapi's use index — and requires zero findings.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, idx, err := NewLoader().Tree(ModulePath + "/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if idx.Pkg(ModulePath+"/benchmark") == nil {
		t.Fatal("the index does not hold the benchmark module: deadapi would report what only it uses")
	}
	findings, err := Lint(pkgs, idx, All(), true)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	if len(findings) > 0 {
		t.Errorf("the tree must lint clean; findings:\n%s", FormatFindings(findings))
	}
	if len(idx.Hotpath) == 0 {
		t.Error("no //ioat:hotpath annotations found: the steady-state path must be annotated")
	}
}
