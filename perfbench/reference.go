package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The reference op measures how fast the host runs right now. It is
// fixed compute, sorting a fixed array, over memory mapped outside the
// Go heap, so nothing the program under test does, its garbage
// collection included, changes what it costs; only the host does. A
// timed run makes reference ops between its ops and scales the timings
// of each slice of the run by refNominal over the median reference op
// in that slice. That takes out most of the host's speed drift: on a
// shared 2-core VM (Intel Xeon, go1.24) op latencies of identical code
// moved by up to 2x within minutes, as other tenants' load came and
// went, and by 10-20% between runs seconds apart. Sorting was chosen
// over a memory-bound pointer chase because the drift slows
// branch-heavy compute, which the workloads mostly are, more than
// memory latency.
const (
	// sortLen is the length of the sorted array, in uint32s: 256 KiB,
	// which stays in the per-core cache.
	sortLen = 1 << 16
	// sortRounds is how many times one reference op sorts it.
	sortRounds = 4
	// refNominal is what one reference op takes on that VM when it is
	// calm; scaled timings read as if the host ran at that speed.
	refNominal = 15 * time.Millisecond
	// refEvery is how much op time passes between reference ops.
	refEvery = 250 * time.Millisecond
	// refBytes is the memory the reference op maps.
	refBytes = 2 * sortLen * 4
)

// reference is the memory the reference op works over.
type reference struct {
	mem          []byte
	unsorted, xs []uint32
}

func newReference() (*reference, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("reference mmap: %w", err)
	}
	words := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), 2*sortLen)
	r := &reference{mem: mem, unsorted: words[:sortLen], xs: words[sortLen:]}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range r.unsorted {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.unsorted[i] = uint32(x)
	}
	return r, nil
}

// op makes one reference op and returns how long it took.
func (r *reference) op() time.Duration {
	start := time.Now()
	for i := 0; i < sortRounds; i++ {
		copy(r.xs, r.unsorted)
		slices.Sort(r.xs)
	}
	return time.Since(start)
}

func (r *reference) close() {
	if err := syscall.Munmap(r.mem); err != nil {
		panic("reference munmap: " + err.Error())
	}
}

// refSample is one reference op and the index in the run's samples of
// the op it followed.
type refSample struct {
	after int
	took  time.Duration
}

// scaleToReference scales the wall and CPU time of each slice of r's
// samples by refNominal over the median reference op made during that
// slice, or during the run if the slice made none. It returns the
// run's median scale.
func scaleToReference(r *loopResult) float64 {
	scaleOf := func(refs []refSample) float64 {
		xs := make([]float64, len(refs))
		for i, x := range refs {
			xs[i] = float64(x.took)
		}
		return float64(refNominal) / median(xs)
	}
	runScale := scaleOf(r.refs)
	n := len(r.samples)
	k := max(1, min(runSlices, n))
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		var in []refSample
		for _, x := range r.refs {
			if x.after >= lo && x.after < hi {
				in = append(in, x)
			}
		}
		scale := runScale
		if len(in) > 0 {
			scale = scaleOf(in)
		}
		for j := lo; j < hi; j++ {
			s := &r.samples[j]
			s.wall = time.Duration(float64(s.wall) * scale)
			s.cpu = time.Duration(float64(s.cpu) * scale)
		}
	}
	return runScale
}
