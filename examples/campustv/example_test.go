package main

// Example runs the example and pins what it prints.
func Example() {
	main()
	// Output:
	// campus: 60 APs, 250 students, 4 TV channels at 1 Mbps
	//
	// algorithm            total load     max load  unicast airtime  busiest-5 APs
	// SSA                       4.954        0.583            91.7% 0.58,0.50,0.47,0.33,0.26
	// MLA-centralized           3.206        0.583            94.7% 0.58,0.50,0.33,0.28,0.19
	// MLA-distributed           3.354        0.583            94.4% 0.58,0.50,0.47,0.29,0.21
	// BLA-centralized           3.729        0.500            93.8% 0.50,0.29,0.25,0.25,0.23
	// BLA-distributed           4.407        0.417            92.7% 0.42,0.25,0.25,0.25,0.19
	//
	// MLA frees the most total unicast airtime; BLA keeps the busiest
	// AP coolest so no lecture hall starves. SSA does neither: overlapping
	// APs all transmit the same channels to whoever happens to be nearest.
}
