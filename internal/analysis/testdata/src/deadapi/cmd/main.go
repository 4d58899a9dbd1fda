// Command deaduser is the deadapi fixture's second root package. Its
// main and the sort.Interface methods of byVal are clean, and it imports
// fmt, so that fmt.Stringer excuses Level's String method; a helper
// nothing calls is reported.
package main

import (
	"fmt"
	"sort"

	"ioatsim/internal/deadlib"
)

type byVal []int

func (b byVal) Len() int           { return len(b) }
func (b byVal) Less(i, j int) bool { return b[i] < b[j] }
func (b byVal) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func main() {
	deadlib.Used()
	deadlib.Stale()
	fmt.Println(deadlib.Level(1))
	var s deadlib.Sink = &deadlib.Counter{}
	s.Put(deadlib.Limit)
	_ = (&deadlib.Box[int]{}).Get()
	_ = deadlib.Map(3)
	sort.Sort(byVal{2, 1})
}

func unusedHelper() {} // want `deaduser\.unusedHelper is used by no non-test code`
