package main

func Example() {
	main()
	// Output:
	// copy 256 KB + 80µs of computation:
	//   CPU memcpy then compute: 284.8µs
	//   async engine copy overlapped: 105.184µs
	//   speedup: 2.71x (engine moves data while the CPU computes)
}
