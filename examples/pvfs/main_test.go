package main

func Example() {
	main()
	// Output:
	// created "dataset.bin": 12582912 bytes striped 64K across 6 I/O servers
	// read 12 MB in 24.957ms (504 MB/s across six 1-GbE links)
	//
	// pvfs-test, 6 iods, 6 concurrent clients, 12 MB regions:
	//   read  non-I/OAT   675.1 MB/s   client CPU  35.9%   server CPU  33.3%
	//   read  I/OAT       682.8 MB/s   client CPU  28.6%   server CPU  33.7%
	//   write non-I/OAT   677.9 MB/s   client CPU  20.3%   server CPU  49.5%
	//   write I/OAT       686.1 MB/s   client CPU  20.6%   server CPU  42.1%
}
