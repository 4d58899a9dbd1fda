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

	// The application is one task: each step takes the task and the
	// step to run when it completes.
	app := cluster.S.NewTask("app")
	var syncTotal, asyncTotal ioatsim.Time
	var cpuCopy, engineCopy func()
	cpuCopy = func() {
		// CPU copy, then compute.
		src := node.Buf(size)
		dst := node.Buf(size)
		start := app.Now()
		node.Copier.CopySync(app, src.Addr, dst.Addr, size, func() {
			node.CPU.ExecThen(app, compute, func() {
				syncTotal = app.Now() - start
				engineCopy()
			})
		})
	}
	engineCopy = func() {
		// Asynchronous engine copy overlapped with the same compute.
		s2, d2 := node.Buf(size), node.Buf(size)
		node.Copier.Start(app, s2.Addr, d2.Addr, size, func(warm *ioatsim.Completion) {
			warm.WaitThen(app, func() { // warm pin cache
				start := app.Now()
				node.Copier.Start(app, s2.Addr, d2.Addr, size, func(done *ioatsim.Completion) {
					// CPU is free while the engine copies.
					node.CPU.ExecThen(app, compute, func() {
						done.WaitThen(app, func() { asyncTotal = app.Now() - start })
					})
				})
			})
		})
	}
	app.Start(cpuCopy)
	cluster.S.Run()

	fmt.Printf("copy 256 KB + %v of computation:\n", compute)
	fmt.Printf("  CPU memcpy then compute: %v\n", time.Duration(syncTotal))
	fmt.Printf("  async engine copy overlapped: %v\n", time.Duration(asyncTotal))
	fmt.Printf("  speedup: %.2fx (engine moves data while the CPU computes)\n",
		float64(syncTotal)/float64(asyncTotal))
}
