module github.com/oscar-overlay/oscar/benchmark

go 1.24

require github.com/oscar-overlay/oscar v0.0.0

// The benchmark measures the checkout it sits in.
replace github.com/oscar-overlay/oscar => ../
