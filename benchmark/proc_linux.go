package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// childAttr makes the kernel kill the child when the harness dies, so no
// exit path — not even SIGKILL of the harness — leaves an orphan daemon.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// pinOneCPU confines the harness, and through it every process it starts, to
// the highest-numbered CPU it may use. The reference host lends the benchmark
// two virtual CPUs of a shared machine; a request that hops between them
// waits for the host to schedule the other one, and that wait, not the
// program, was most of the run-to-run spread. On one CPU generator and daemon
// take turns, throughput is what both cost per request, and the daemon starts
// with GOMAXPROCS 1. The affinity has to be there before the Go runtime
// starts, so the harness sets it on this thread and executes itself again;
// pinnedEnv marks the second life.
func pinOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu, allowed := -1, 0
	for i := range mask {
		for b := 0; b < 64; b++ {
			if mask[i]&(1<<b) != 0 {
				cpu = 64*i + b
				allowed++
			}
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: no CPU allowed")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), fmt.Sprintf("%s=%d of %d", pinnedEnv, cpu, allowed)))
}
