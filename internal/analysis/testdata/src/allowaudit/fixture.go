// Package allowaudit is the fixture for the suppression grammar audit:
// malformed allow comments are findings, and valid ones that suppress
// nothing are reported as unused when the full suite runs.
package allowaudit

//ioatlint:allow
func missingEverything() {}

//ioatlint:allow simdeterminism
func missingReason() {}

//ioatlint:allow simdeterminism — suppresses nothing on this line or the next
func unused() {}

// init calls the functions above, so that deadapi finds nothing and the
// allow comments are the only findings.
func init() {
	missingEverything()
	missingReason()
	unused()
}
