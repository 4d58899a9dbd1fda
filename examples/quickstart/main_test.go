package main

func Example() {
	main()
	// Output:
	// 16 MB bulk transfer over one 1-GbE port:
	//   non-I/OAT     939.2 Mbps  receiver CPU  5.51%
	//   I/OAT         939.3 Mbps  receiver CPU  4.30%
	// same wire speed, 22% relative CPU benefit — the paper's core result
}
