// Package solve reaches internal/lp.
package solve

import "example.com/surface/internal/lp"

// Run calls lp.Solve.
func Run() int { return lp.Solve() }
