package main

import (
	"syscall"
	"time"
	"unsafe"
)

const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID

// cpuNow reads the process CPU clock: the time the process's threads have
// spent running. A guest kernel with steal accounting leaves out the time
// the hypervisor gave the vCPU to another guest, which on a shared host
// swings the wall clock by tens of percent from one minute to the next.
// With one P and a closed loop that never blocks, the process runs
// whenever the workload does, so an interval on this clock is the
// interval's wall time on an unshared core. The clock is Linux's; the
// benchmark builds only there.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}
