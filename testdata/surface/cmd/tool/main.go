// Command tool links internal/lp through internal/solve.
package main

import (
	"fmt"

	"example.com/surface/internal/solve"
	"example.com/surface/internal/user"
)

func main() { fmt.Println(solve.Run(), user.Value()) }
