// Command bench stands in for the benchmark module: its uses count, and
// nothing in it is linted.
package main

import "ioatsim/internal/deadlib"

func main() { deadlib.BenchOnly() }

func unused() {}
