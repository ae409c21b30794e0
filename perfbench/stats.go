package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// tally counts one phase's ops. Errors, empty replies, refusals and
// wrong results all count as failed; nothing is skipped.
type tally struct{ attempted, failed int }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// usage is a process-wide reading taken at a phase boundary.
type usage struct {
	wall time.Time
	cpu  time.Duration // user + system CPU of the whole process
	mem  runtime.MemStats
}

func readUsage() usage {
	u := usage{wall: time.Now(), cpu: processCPU()}
	runtime.ReadMemStats(&u.mem)
	return u
}

// interval is what happened between two usage readings.
type interval struct {
	wall, cpu   time.Duration
	gcCycles    uint32
	gcPause     time.Duration
	mallocs     uint64
	heapInuseMB float64
}

func (u usage) until(v usage) interval {
	return interval{
		wall:        v.wall.Sub(u.wall),
		cpu:         v.cpu - u.cpu,
		gcCycles:    v.mem.NumGC - u.mem.NumGC,
		gcPause:     time.Duration(v.mem.PauseTotalNs - u.mem.PauseTotalNs),
		mallocs:     v.mem.Mallocs - u.mem.Mallocs,
		heapInuseMB: float64(v.mem.HeapInuse) / (1 << 20),
	}
}

// goMetrics are the Go runtime's per-layer metrics over an interval of ops.
func (s interval) goMetrics(ops int, into map[string]float64) {
	into["go.gc_cycles"] = float64(s.gcCycles)
	into["go.gc_pause_ms"] = ms(s.gcPause)
	into["go.allocs_per_op"] = float64(s.mallocs) / float64(max(ops, 1))
	into["go.heap_inuse_mb"] = s.heapInuseMB
}

func (s interval) cpuMSPerOp(ops int) float64 { return ms(s.cpu) / float64(max(ops, 1)) }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set size so far.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile (nearest rank) of ds; it sorts ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(q * float64(len(ds)))
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func median(ds []time.Duration) time.Duration { return quantile(slices.Clone(ds), 0.5) }

// medianOf returns the median (nearest rank) of vs; it sorts vs.
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	return vs[len(vs)/2]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
