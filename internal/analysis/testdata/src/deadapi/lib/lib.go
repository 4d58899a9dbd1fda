// Package deadlib is the deadapi fixture's library. The test loads it
// as ioatsim/internal/deadlib, with cmd (a command of the root module)
// and bench (standing in for the benchmark module, a user module that
// is indexed but not linted) as its users. lib_test.go is never
// loaded: a use only a test makes is no use.
package deadlib

// Used is called by another package.
func Used() {}

// BenchOnly is called only by the benchmark stand-in.
func BenchOnly() {}

// TestOnly is called only from lib_test.go.
func TestOnly() {} // want `deadlib\.TestOnly is exported but no non-test code uses it`

func testOnly() {} // want `deadlib\.testOnly is used by no non-test code`

// countdown calls only itself: a declaration's references to itself are
// no use.
func countdown(n int) int { // want `deadlib\.countdown is used by no non-test code`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// Kept is read only by another package's tests.
//
//ioatlint:allow deadapi — read by the cmd fixture's tests
func Kept() {}

// Limit is read by another package; Spare by none.
const Limit = 3

var Spare = 1 // want `deadlib\.Spare is exported but`

// Level is used by another package, and fmt calls its String method.
type Level int

func (l Level) String() string { return "level" }

// Sink is an interface of the loaded code: a method it declares is used.
type Sink interface{ Put(v int) }

// Counter satisfies Sink. It has a Len method but no Less or Swap, so
// sort.Interface does not excuse Len.
type Counter struct{ n int }

func (c *Counter) Put(v int) { c.n += v }

func (c *Counter) Len() int { return c.n } // want `deadlib\.\(Counter\)\.Len is exported but`

// Box is generic: a use through an instance is a use of its origin.
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

// Map is a generic function called through an instance.
func Map[T any](x T) T { return x }

//ioatlint:allow deadapi — stale: the cmd fixture calls Stale // want `unused allow comment`
func Stale() {}
