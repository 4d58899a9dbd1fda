// Asyncmemcpy demonstrates the user-level asynchronous memory copy the
// paper's §7/§8 proposes as future work: offload a large copy to the
// I/OAT engine, overlap it with computation, and compare against a
// blocking CPU memcpy.
//
//	go run ./examples/asyncmemcpy
package main

import (
	"fmt"
	"time"

	"ioatsim"
)

func main() {
	cluster, node, _ := ioatsim.Testbed1(ioatsim.DefaultParams(), ioatsim.IOAT(), 1)
	defer cluster.Close()

	const size = 256 * ioatsim.KB
	const compute = 80 * time.Microsecond // work to overlap with the copy

	var syncTotal, asyncTotal ioatsim.Time
	cluster.S.Spawn("app", func(p *ioatsim.Proc) {
		src := node.Buf(size)
		dst := node.Buf(size)

		// Blocking CPU copy, then compute.
		start := p.Now()
		node.Copier.CopySync(p, src.Addr, dst.Addr, size)
		node.CPU.Exec(p, compute)
		syncTotal = p.Now() - start

		// Asynchronous engine copy overlapped with the same compute.
		s2, d2 := node.Buf(size), node.Buf(size)
		node.Copier.Start(p, s2.Addr, d2.Addr, size).Wait(p) // warm pin cache
		start = p.Now()
		done := node.Copier.Start(p, s2.Addr, d2.Addr, size)
		node.CPU.Exec(p, compute) // CPU is free while the engine copies
		done.Wait(p)
		asyncTotal = p.Now() - start
	})
	cluster.S.Run()

	fmt.Printf("copy 256 KB + %v of computation:\n", compute)
	fmt.Printf("  CPU memcpy then compute: %v\n", time.Duration(syncTotal))
	fmt.Printf("  async engine copy overlapped: %v\n", time.Duration(asyncTotal))
	fmt.Printf("  speedup: %.2fx (engine moves data while the CPU computes)\n",
		float64(syncTotal)/float64(asyncTotal))
}
