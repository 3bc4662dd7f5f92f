//go:build !linux

package main

import "os/exec"

// killWithParent is a no-op where the kernel offers no parent-death
// signal; the harness's t.Cleanup kill still reaps the daemon on any
// orderly exit.
func killWithParent(*exec.Cmd) {}
