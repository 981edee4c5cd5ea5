//go:build !linux

package main

import "syscall"

// childAttr has no parent-death signal to set outside Linux; the deferred
// stop and the context still kill the child on every ordinary exit path.
func childAttr() *syscall.SysProcAttr { return nil }

// pinOneCPU does nothing where there is no sched_setaffinity.
func pinOneCPU() error { return nil }
