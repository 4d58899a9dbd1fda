package analysis

import (
	"go/token"
	"strings"
)

// allowPrefix introduces a suppression comment. Grammar (README
// "Static contracts" section documents it for users):
//
//	//ioatlint:allow <analyzer>[,<analyzer>...] — <reason>
//
// The comment suppresses matching findings on its own line and on the
// line immediately below it (so it can trail the flagged statement or
// sit on its own line above). The em dash may be written "—", "--" or
// "-". An empty reason or empty analyzer list is malformed; an allow
// that suppresses nothing is reported as unused when the full suite
// runs.
const allowPrefix = "//ioatlint:allow"

// allowEntry is one parsed suppression comment.
type allowEntry struct {
	pos       token.Position
	analyzers []string
	malformed string // non-empty: why the comment failed to parse
	used      bool
}

// allowSet indexes a package's allow comments by file:line.
type allowSet struct {
	byLine map[string][]*allowEntry
	all    []*allowEntry
}

// parseAllow splits one comment's text into analyzers and reason.
func parseAllow(text string) (analyzers []string, reason string, malformed string) {
	rest := strings.TrimPrefix(text, allowPrefix)
	if rest == text {
		return nil, "", "" // not an allow comment
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, "", "missing space after " + allowPrefix
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, "", "missing analyzer name and reason"
	}
	for _, name := range strings.Split(fields[0], ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, "", "empty analyzer name in list"
		}
		analyzers = append(analyzers, name)
	}
	rest = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
	for _, sep := range []string{"—", "--", "-"} {
		if cut, ok := strings.CutPrefix(rest, sep); ok {
			rest = strings.TrimSpace(cut)
			break
		}
	}
	if rest == "" {
		return nil, "", "missing reason: write //ioatlint:allow <analyzer> — <why this exception is sound>"
	}
	return analyzers, rest, ""
}

// collectAllows parses every allow comment in the package.
func collectAllows(pkg *Package) *allowSet {
	s := &allowSet{byLine: map[string][]*allowEntry{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				analyzers, _, malformed := parseAllow(c.Text)
				e := &allowEntry{
					pos:       pkg.Fset.Position(c.Pos()),
					analyzers: analyzers,
					malformed: malformed,
				}
				s.all = append(s.all, e)
				if malformed != "" {
					continue
				}
				// The comment covers its own line (trailing form) and
				// the next line (preceding form).
				for _, line := range []int{e.pos.Line, e.pos.Line + 1} {
					key := lineKey(e.pos.Filename, line)
					s.byLine[key] = append(s.byLine[key], e)
				}
			}
		}
	}
	return s
}

func lineKey(file string, line int) string {
	// Line numbers are bounded by file size; a rune far outside any
	// source text keeps the join unambiguous.
	return file + "\x00" + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// suppress reports whether a finding from the named analyzer at pos is
// covered by an allow comment, marking the comment used.
func (s *allowSet) suppress(analyzer string, pos token.Position) bool {
	for _, e := range s.byLine[lineKey(pos.Filename, pos.Line)] {
		for _, name := range e.analyzers {
			if name == analyzer {
				e.used = true
				return true
			}
		}
	}
	return false
}

// problems returns findings for malformed and (optionally) unused allow
// comments, attributed to the pseudo-analyzer "ioatlint".
func (s *allowSet) problems(checkUnused bool) []Finding {
	var out []Finding
	for _, e := range s.all {
		switch {
		case e.malformed != "":
			out = append(out, Finding{Analyzer: "ioatlint", Pos: e.pos,
				Message: "malformed allow comment: " + e.malformed})
		case checkUnused && !e.used:
			out = append(out, Finding{Analyzer: "ioatlint", Pos: e.pos,
				Message: "unused allow comment (suppresses nothing); delete it or fix the analyzer list"})
		}
	}
	return out
}
