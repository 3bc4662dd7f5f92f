// Package kept declares one used, one dead and one test-only export.
package kept

// Used is called by internal/user.
func Used() int { return 1 }

// Dead has no caller at all.
func Dead() int { return 2 }

// Helper is called only by internal/user's tests.
func Helper() int { return 3 }
