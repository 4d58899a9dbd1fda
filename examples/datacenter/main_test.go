package main

func Example() {
	main()
	// Output:
	// two-tier data-center, 64 clients, Zipf(0.9) over 500 x 8K documents:
	//   non-I/OAT  TPS    24962   proxy CPU 100.0%   web CPU  56.4%
	//   I/OAT      TPS    26525   proxy CPU 100.0%   web CPU  59.8%
	//   => 6.3% more transactions with I/OAT
	//
	// with a 2 MB proxy cache: TPS    32512   proxy CPU 100.0%   web CPU  13.8%
	// (the web tier goes quiet as popular documents pin in the proxy cache)
	//
	// three-tier dynamic content (3 DB queries per request):
	//   non-I/OAT  TPS    10150   app CPU  98.1%   db CPU  73.5%
	//   I/OAT      TPS    10581   app CPU  99.5%   db CPU  76.0%
}
