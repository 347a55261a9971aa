package main

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling thread for d with the kernel's
// high-resolution timer. time.Sleep wakes through the runtime's
// poller, which on Linux overshoots by about half a millisecond; that
// would make an open-loop generator send late.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
