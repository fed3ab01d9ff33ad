package main

import (
	"syscall"
	"time"
)

// cpuNow returns the CPU time this process has used, user plus system.
// Host costs are measured on this clock, not the wall clock: on a
// shared virtual machine the wall clock also counts time the
// hypervisor gives to other guests (steal), which made the same run's
// wall time vary by up to 2x, while CPU time varied by about 5%. On
// the one processor main allows, CPU time is the program's work plus
// its share of garbage collection.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
