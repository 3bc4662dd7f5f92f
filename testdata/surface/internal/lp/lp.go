// Package lp stands in for a solver the programs must not link.
package lp

// Solve returns a constant.
func Solve() int { return 4 }
