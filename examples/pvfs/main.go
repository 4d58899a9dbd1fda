// Pvfs runs the paper's §6 scenario end to end through the public API:
// a striped parallel file system over ramfs, with pvfs-test-style
// concurrent readers and writers, comparing I/OAT and non-I/OAT CPU.
//
//	go run ./examples/pvfs
package main

import (
	"fmt"
	"time"

	"ioatsim"
)

func main() {
	// Part 1: direct use of the client library — create a striped file
	// and read it back.
	cluster := ioatsim.NewCluster(ioatsim.DefaultParams(), 1)
	defer cluster.Close()
	compute := cluster.Add("compute", ioatsim.IOAT(), 6)
	server := cluster.Add("server", ioatsim.IOAT(), 6)
	sys := ioatsim.NewPVFS(server, 6, 0)

	app := cluster.S.NewTask("app")
	app.Start(func() {
		ioatsim.NewPVFSClient(app, compute, sys, func(c *ioatsim.PVFSClient) {
			c.Create("dataset.bin", 12*ioatsim.MB, func(meta ioatsim.PVFSFileMeta) {
				fmt.Printf("created %q: %d bytes striped %dK across %d I/O servers\n",
					meta.Name, meta.Size, meta.Stripe/ioatsim.KB, meta.Servers)

				buf := compute.Buf(12 * ioatsim.MB)
				start := app.Now()
				c.Read(meta, 0, meta.Size, buf, func() {
					elapsed := time.Duration(app.Now() - start)
					fmt.Printf("read %d MB in %v (%.0f MB/s across six 1-GbE links)\n\n",
						meta.Size/ioatsim.MB, elapsed.Round(time.Microsecond),
						float64(meta.Size)/elapsed.Seconds()/1e6)
				})
			})
		})
	})
	cluster.S.Run()

	// Part 2: the paper's concurrent-access benchmark, both feature sets.
	fmt.Println("pvfs-test, 6 iods, 6 concurrent clients, 12 MB regions:")
	for _, write := range []bool{false, true} {
		op := "read "
		if write {
			op = "write"
		}
		for _, feat := range []ioatsim.Features{ioatsim.NonIOAT(), ioatsim.IOAT()} {
			m := ioatsim.RunPVFS(ioatsim.PVFSOptions{
				Feat: feat, Seed: 1, IODs: 6, Clients: 6, Write: write,
				Warm: 30 * time.Millisecond, Meas: 120 * time.Millisecond,
			})
			fmt.Printf("  %s %-10s %6.1f MB/s   client CPU %5.1f%%   server CPU %5.1f%%\n",
				op, feat.Label(), m.MBps, m.ClientCPU*100, m.ServerCPU*100)
		}
	}
}
