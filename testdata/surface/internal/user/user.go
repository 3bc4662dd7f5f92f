// Package user calls kept.Used.
package user

import "example.com/surface/internal/kept"

// Value returns kept.Used.
func Value() int { return kept.Used() }
