package main

import (
	"os/exec"
	"syscall"
)

// killWithParent has the kernel SIGKILL cmd's process when the test
// binary that started it dies, so a test binary killed by -timeout
// leaves no serving daemon behind.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
