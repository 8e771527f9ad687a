//go:build unix

package experiments

import (
	"syscall"
	"time"
)

// cpuSeconds returns this process's cumulative user+system CPU time. Deltas
// around a run attribute the work wall-clock cannot: on a box with fewer
// cores than shards the speedup is flat while cpu_seconds still shows the
// work done.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (time.Duration(ru.Utime.Nano()) + time.Duration(ru.Stime.Nano())).Seconds()
}
