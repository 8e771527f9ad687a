package obs

import (
	"runtime"
	"time"
)

// startRuntimeSampler exports Go runtime health as gauges, refreshed via an
// OnCollect hook so every snapshot (and thus every /metrics scrape) sees
// current values:
//
//	runtime_goroutines        — runtime.NumGoroutine()
//	runtime_heap_alloc_bytes  — MemStats.HeapAlloc
//	runtime_heap_sys_bytes    — MemStats.HeapSys
//	runtime_gc_runs_total     — MemStats.NumGC (gauge: it is read, not counted)
//	runtime_gc_pause_total_seconds — cumulative stop-the-world pause time
//	runtime_gc_last_pause_seconds  — most recent pause
//
// These are wall-clock facts about the hosting process, so the sampler is for
// live binaries only: deterministic drivers must never call it, and the
// default barrier_stall-style rules that could read such gauges are marked
// RealTime so even a misconfigured wiring cannot leak nondeterminism into a
// seeded alert log. The returned stop removes the hook.
// HeapLiveBytes forces a collection and returns MemStats.HeapAlloc: the
// bytes still reachable after GC. Two calls bracketing a construction phase
// give that phase's live-memory footprint — the measurement behind the
// fleet's bytes-per-phone figure — independent of transient garbage.
func HeapLiveBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func startRuntimeSampler(r *Registry) (stop func()) {
	if r == nil {
		return func() {}
	}
	goroutines := r.Gauge("runtime_goroutines")
	heapAlloc := r.Gauge("runtime_heap_alloc_bytes")
	heapSys := r.Gauge("runtime_heap_sys_bytes")
	gcRuns := r.Gauge("runtime_gc_runs_total")
	gcPauseTotal := r.Gauge("runtime_gc_pause_total_seconds")
	gcLastPause := r.Gauge("runtime_gc_last_pause_seconds")
	return r.OnCollect(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapSys.Set(float64(ms.HeapSys))
		gcRuns.Set(float64(ms.NumGC))
		gcPauseTotal.Set(time.Duration(ms.PauseTotalNs).Seconds())
		if ms.NumGC > 0 {
			gcLastPause.Set(time.Duration(ms.PauseNs[(ms.NumGC+255)%256]).Seconds())
		}
	})
}
