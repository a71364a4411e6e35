package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// bench is one set-up workload: a closed loop calls between and then
// op, one op at a time. op performs one operation and checks its
// output; a non-nil error counts the op as failed.
type bench interface {
	// between does untimed harness work before the next op.
	between(t *tracer) error
	// op performs and checks one operation; t is nil when untraced.
	op(t *tracer) error
	// probe makes the traced run's direct per-layer calls.
	probe(t *tracer) error
	// selftest corrupts the warm-up op's output in each way the checks
	// must catch, and fails if any corruption passes a check.
	selftest() error
	close()
}

// noHooks gives a bench the empty between, probe and close.
type noHooks struct{}

func (noHooks) between(*tracer) error { return nil }
func (noHooks) probe(*tracer) error   { return nil }
func (noHooks) close()                {}

// sample is the cost of one op, and the memory the process holds
// after it.
type sample struct {
	wall, cpu     time.Duration
	bytes, allocs uint64
	held          uint64
}

// loopResult is what a closed loop measured.
type loopResult struct {
	samples  []sample
	attempts int
	failed   int
	firstErr error
	gcCycles uint32
	gcPause  time.Duration
	refs     []refSample // the reference ops made between ops
}

// minOps leaves ten samples beyond the 90th percentile.
const minOps = 100

// loop runs b's ops back to back for at least d and atLeast ops, and at
// most 3d. Time spent in between is not part of any op's cost. With a
// reference, it makes a reference op after the first op and then after
// every refEvery of op time.
func loop(b bench, d time.Duration, atLeast int, t *tracer, ref *reference) loopResult {
	var r loopResult
	sinceRef := refEvery
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, pause0 := m0.NumGC, m0.PauseTotalNs
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= 3*d || el >= d && len(r.samples) >= atLeast {
			break
		}
		if err := b.between(t); err != nil {
			r.attempts++
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
			continue
		}
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		t0 := time.Now()
		t.startOp()
		err := b.op(t)
		t.endOp()
		wall := time.Since(t0)
		c1 := cpuTime()
		runtime.ReadMemStats(&m1)
		if sinceRef += wall; ref != nil && sinceRef >= refEvery {
			r.refs = append(r.refs, refSample{after: len(r.samples), took: ref.op()})
			sinceRef = 0
		}
		r.attempts++
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
			continue
		}
		r.samples = append(r.samples, sample{
			wall:   wall,
			cpu:    c1 - c0,
			bytes:  m1.TotalAlloc - m0.TotalAlloc,
			allocs: m1.Mallocs - m0.Mallocs,
			held:   m1.Sys - m1.HeapReleased,
		})
	}
	runtime.ReadMemStats(&m1)
	r.gcCycles = m1.NumGC - gc0
	r.gcPause = time.Duration(m1.PauseTotalNs - pause0)
	return r
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's maximum resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// runSlices is how many consecutive slices a run's ops are split into for
// the rates reported as a median over slices: a burst of interference
// from outside the process then moves one or two slices, not the median.
const runSlices = 10

// sliceMedian splits ss into k consecutive slices of near-equal size
// and returns the median over slices of f(slice).
func sliceMedian(ss []sample, k int, f func([]sample) float64) float64 {
	k = max(1, min(k, len(ss)))
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = f(ss[i*len(ss)/k : (i+1)*len(ss)/k])
	}
	return median(vals)
}

// opsPerSec is completed ops per second: for each slice of the run its
// ops over the time spent in them, and the median over slices.
func (r loopResult) opsPerSec() float64 {
	return sliceMedian(r.samples, runSlices, func(ss []sample) float64 {
		var total time.Duration
		for _, s := range ss {
			total += s.wall
		}
		return float64(len(ss)) / total.Seconds()
	})
}

// timings are a run's end-to-end timing metrics.
type timings struct {
	opsPerSec, p50, p90, cpu float64
}

// timings summarises the wall and CPU time of r's samples: latency
// quantiles over all ops, throughput and CPU per op as medians over
// slices.
func (r loopResult) timings() timings {
	lat := make([]float64, len(r.samples))
	for i, s := range r.samples {
		lat[i] = float64(s.wall) / 1e6
	}
	cpu := sliceMedian(r.samples, runSlices, func(ss []sample) float64 {
		var total time.Duration
		for _, s := range ss {
			total += s.cpu
		}
		return total.Seconds() / float64(len(ss))
	})
	return timings{opsPerSec: r.opsPerSec(), p50: quantile(lat, 0.5), p90: quantile(lat, 0.9), cpu: cpu}
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	i := int(q*float64(len(xs)) + 0.5)
	if i > 0 {
		i--
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the middle of xs, or the mean of the middle two; it sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tracer records spans and per-op values in memory. A nil *tracer
// records nothing, so untraced ops pay one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	first  int                  // index of the current op's first span
	vals   map[string]float64   // the current op's values
	ops    []map[string]float64 // per op: span self times (ms) and values
}

type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.origin)})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = time.Since(t.origin)
	t.stack = t.stack[:n]
}

// value adds v to the current op's value called name.
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.vals[name] += v
}

func (t *tracer) startOp() {
	if t == nil {
		return
	}
	t.first = len(t.spans)
	t.vals = map[string]float64{}
}

// endOp folds the op's spans into self times summed by name: a span's
// self time is its duration less the time its child spans cover.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	op := t.vals
	spans := t.spans[t.first:]
	for i, s := range spans {
		self := s.end - s.start
		for _, c := range spans[i+1:] {
			if c.parent == t.first+i {
				self -= c.end - c.start
			}
		}
		op[s.name] += float64(self) / 1e6
	}
	t.ops = append(t.ops, op)
	t.vals = nil
}

// medians is, for every span name and value name, its median over the
// ops that recorded it.
func (t *tracer) medians() map[string]float64 {
	all := map[string][]float64{}
	for _, op := range t.ops {
		for k, v := range op {
			all[k] = append(all[k], v)
		}
	}
	out := make(map[string]float64, len(all))
	for k, xs := range all {
		out[k] = median(xs)
	}
	return out
}
