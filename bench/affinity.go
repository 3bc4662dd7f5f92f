package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask (1024 CPUs).
type cpuMask [16]uint64

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func (m cpuMask) first() (int, bool) {
	for w, bits := range m {
		for b := 0; b < 64; b++ {
			if bits&(1<<b) != 0 {
				return w*64 + b, true
			}
		}
	}
	return 0, false
}

func only(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// setAffinity applies the mask to every thread of process pid. Threads
// inherit the mask of the thread that creates them, so after one pass
// over /proc/<pid>/task every later thread is covered; the second pass
// catches threads born during the first.
func setAffinity(pid int, m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/" + strconv.Itoa(pid) + "/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if e != 0 && e != syscall.ESRCH { // a thread may exit between listing and pinning
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}

// confineToOneCPU puts this process — and every daemon it starts
// from here on, which inherits the mask — on one CPU with one Go
// scheduler thread, and returns the function that undoes it for this
// process. A closed loop with one request in flight never has both
// sides runnable, so sharing costs nothing — and it takes the
// hypervisor's cross-CPU wake-up, which on the reference host is both
// the larger part of a loopback round trip and its least steady part,
// out of every sample.
func confineToOneCPU() (cpu int, undo func(), err error) {
	orig, err := getAffinity(0)
	if err != nil {
		return 0, nil, err
	}
	cpu, ok := orig.first()
	if !ok {
		return 0, nil, fmt.Errorf("empty CPU affinity mask")
	}
	self := os.Getpid()
	if err := setAffinity(self, only(cpu)); err != nil {
		return 0, nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return cpu, func() {
		runtime.GOMAXPROCS(procs)
		setAffinity(self, orig)
	}, nil
}
