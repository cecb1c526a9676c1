package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// processCPU is the CPU time every thread of the process has used so far,
// user and system, to the nanosecond. The benchmark times its calls on this
// clock rather than the wall clock: on a host whose CPUs are shared with
// other work, the process is runnable but not running for a share of the
// wall time that swings by tens of percent from minute to minute, and that
// share measures the host's scheduler, not the program.
func processCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
