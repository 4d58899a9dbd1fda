package analysis

import (
	"fmt"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// RunFixture type-checks the fixture directory as the package with the
// given import path, runs the analyzer (with suppression filtering),
// and compares the surviving findings against `// want "regexp"`
// expectations in the fixture source — the analysistest convention:
//
//	_ = time.Now() // want `time\.Now reads the host clock`
//
// Each expectation must be matched by a finding on its line, and each
// finding must be matched by an expectation. Multiple back-quoted or
// quoted patterns may follow one want comment.
//
// Fixture loads share one process-wide loader so the (expensive) first
// source-import of the standard library is paid once per test binary.
func RunFixture(t *testing.T, a *Analyzer, dir, pkgpath string) {
	t.Helper()
	runFixtures(t, a, []dirPkg{{dir, pkgpath}}, nil, false)
}

// runFixtures loads the lint directories and then the user directories
// (each may import the ones before it by its given path), lints the
// first with an index over both, and checks the lint directories' want
// comments. checkUnused reports allows that suppress nothing.
func runFixtures(t *testing.T, a *Analyzer, lint, users []dirPkg, checkUnused bool) {
	t.Helper()
	all, err := fixtureLoader.dirs(append(lint, users...)...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	pkgs := all[:len(lint)]
	findings, err := Lint(pkgs, NewIndex(all), []*Analyzer{a}, checkUnused)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	checkExpectations(t, pkgs, findings)
}

// fixtureLoader is shared across fixture runs (see RunFixture).
var fixtureLoader = NewLoader()

// dirs loads the non-test .go files of each directory, in order, as the
// package with the paired import path. The paths need not match the
// directories' locations, and a directory may import an earlier one by
// its given path: the fixture harness uses this to type-check testdata
// packages as if they were the real packages the analyzers key on.
func (l *Loader) dirs(dirs ...dirPkg) ([]*Package, error) {
	imp := fixtureImporter{next: l.imp, local: map[string]*types.Package{}}
	var pkgs []*Package
	for _, d := range dirs {
		matches, err := filepath.Glob(filepath.Join(d.Dir, "*.go"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		var files []string
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				files = append(files, m)
			}
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no .go files in %s", d.Dir)
		}
		pkg, err := l.check(d.Path, d.Dir, files, imp)
		if err != nil {
			return nil, err
		}
		imp.local[d.Path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// dirPkg names a directory and the import path dirs loads it as.
type dirPkg struct{ Dir, Path string }

// fixtureImporter resolves the packages one dirs call has loaded by
// their given paths, and everything else through the source importer.
type fixtureImporter struct {
	next  types.ImporterFrom
	local map[string]*types.Package
}

func (f fixtureImporter) Import(path string) (*types.Package, error) {
	return f.ImportFrom(path, ".", 0)
}

func (f fixtureImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := f.local[path]; pkg != nil {
		return pkg, nil
	}
	return f.next.ImportFrom(path, dir, mode)
}

// wantRe matches one expectation pattern after a `// want` marker:
// back-quoted or double-quoted.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectation is one `// want` pattern at a file:line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// checkExpectations diffs findings against the fixtures' want comments.
func checkExpectations(t *testing.T, pkgs []*Package, findings []Finding) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	for _, f := range findings {
		if exp := matchWant(wants, f); exp != nil {
			exp.matched = true
		} else {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, exp := range wants {
		if !exp.matched {
			t.Errorf("%s:%d: no finding matched want %q", exp.file, exp.line, exp.pattern)
		}
	}
}

// matchWant finds an unmatched expectation on the finding's line whose
// pattern matches its message.
func matchWant(wants []*expectation, f Finding) *expectation {
	for _, exp := range wants {
		if !exp.matched && exp.file == f.Pos.Filename && exp.line == f.Pos.Line &&
			exp.pattern.MatchString(f.Message) {
			return exp
		}
	}
	return nil
}

// FormatFindings renders findings one per line for test failure output.
func FormatFindings(findings []Finding) string {
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintln(&b, f)
	}
	return b.String()
}
