// Package runner is the concurrent scenario-fleet engine: it executes
// batches of independent jobs — typically one core.Scenario kill-chain
// run each — across a fixed worker pool while keeping the batch result
// bit-for-bit deterministic. Three rules make parallelism invisible to
// callers:
//
//  1. Jobs never share mutable state. Each job assembles its own
//     scenario, seeded via Seed(base, id) so its randomness depends
//     only on its identity, never on scheduling.
//  2. Results are assembled in submission order, not completion order.
//  3. A failed batch reports the lowest-index error, not whichever
//     worker happened to lose the race; every job still runs, exactly
//     as in the sequential case.
//
// Consequently the output of a batch run with one worker is identical
// to the same batch run with any other worker count, which is what
// lets the experiments regenerate the paper's tables and figures in
// parallel without perturbing a single byte.
package runner

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes batches of independent jobs on a worker pool of a
// fixed size. The zero value is not usable; construct with New. A
// Runner is stateless between batches and safe for concurrent use,
// but jobs must not submit nested batches to the runner that is
// executing them — nest by constructing a scoped sub-runner instead.
type Runner struct {
	workers int
}

// New returns a Runner with the given parallelism. n <= 0 selects
// GOMAXPROCS, n == 1 is strictly sequential (no goroutines at all).
func New(n int) *Runner {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: n}
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }

// Job is one self-contained unit of work with a stable identity. The
// ID names the job in errors and seeds its randomness (see Seed); Fn
// must not touch state shared with any other job in the batch.
type Job struct {
	ID string
	Fn func() (any, error)
}

// Run executes a batch of jobs and returns their values in submission
// order. All jobs run even when some fail; the returned error is the
// lowest-index failure, annotated with that job's ID.
func (r *Runner) Run(jobs []Job) ([]any, error) {
	return Map(r, jobs, func(_ int, j Job) (any, error) {
		v, err := j.Fn()
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", j.ID, err)
		}
		return v, nil
	})
}

// Map applies fn to every item on the runner's pool and returns the
// results in item order. fn receives the item's index and must be
// safe to call concurrently with itself on distinct items. All items
// are processed even when some fail — mirroring the sequential path —
// and the returned error is the one from the lowest-index item.
func Map[T, R any](r *Runner, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))

	workers := r.workers
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i := range items {
			out[i], errs[i] = fn(i, items[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(items) {
						return
					}
					out[i], errs[i] = fn(i, items[i])
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// minChunk is the smallest span Chunks will produce: below this the
// per-job scheduling overhead outweighs the work in the span.
const minChunk = 16

// Chunks splits n items into balanced contiguous [lo, hi) ranges sized
// for a pool of the given width. It aims for ~4 spans per worker so a
// straggling span cannot serialise the batch tail, but never cuts spans
// smaller than minChunk items. With one worker (or few items) it
// returns a single full range, so sequential callers pay no overhead.
func Chunks(n, workers int) [][2]int {
	if n <= 0 {
		return nil
	}
	chunks := 1
	if workers > 1 {
		chunks = workers * 4
		if maxChunks := n / minChunk; chunks > maxChunks {
			chunks = maxChunks
		}
		if chunks < 1 {
			chunks = 1
		}
	}
	out := make([][2]int, 0, chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// Checkpoint is the durable chunk-resume sink ResumeMap consults: an
// orchestrator (labd's per-run checkpoint file) implements it so a
// batch interrupted by a crash restarts at the last committed chunk
// instead of from zero. Lookup and Commit may be called concurrently
// from distinct workers; implementations serialise internally.
type Checkpoint interface {
	// Lookup returns the committed payload for key, if any.
	Lookup(key string) ([]byte, bool)
	// Commit durably records the payload for key. A Commit error aborts
	// the batch — a checkpoint that cannot persist must not pretend to.
	Commit(key string, payload []byte) error
}

// ChunkKey names one [lo, hi) span of an n-item batch in a checkpoint.
// The batch size is part of the key, so a checkpoint taken against a
// different chunk layout simply misses and the span recomputes — stale
// layouts can never corrupt a resumed run.
func ChunkKey(n, lo, hi int) string {
	return fmt.Sprintf("chunk:v1:%d:%d-%d", n, lo, hi)
}

// ResumeMap applies fn to every Chunks(n, workers) span on the pool
// and returns the per-span results in span order — Map's determinism
// contract at chunk granularity — with optional crash resume: when
// ckpt is non-nil, spans whose results a previous attempt committed
// are decoded from the checkpoint and skipped, and every freshly
// computed span is committed as its worker finishes it.
//
// Resume correctness needs two properties from the caller: fn must be
// a pure function of [lo, hi) (rule 1 of the fleet engine — no state
// shared across spans), and R must round-trip losslessly through
// encoding/json, because a decoded result replaces recomputation
// byte-for-byte in the fold. Integer/string datasets qualify; lossy
// float round-trips do not. An undecodable committed payload is
// treated as absent (the span recomputes), never as an error.
func ResumeMap[R any](r *Runner, n int, ckpt Checkpoint, fn func(lo, hi int) (R, error)) ([]R, error) {
	spans := Chunks(n, r.workers)
	out := make([]R, len(spans))
	pending := make([]int, 0, len(spans))
	for i, sp := range spans {
		if ckpt != nil {
			if b, ok := ckpt.Lookup(ChunkKey(n, sp[0], sp[1])); ok {
				if err := json.Unmarshal(b, &out[i]); err == nil {
					continue
				}
				out[i] = *new(R)
			}
		}
		pending = append(pending, i)
	}
	_, err := Map(r, pending, func(_ int, i int) (struct{}, error) {
		sp := spans[i]
		v, err := fn(sp[0], sp[1])
		if err != nil {
			return struct{}{}, err
		}
		out[i] = v
		if ckpt != nil {
			b, err := json.Marshal(v)
			if err != nil {
				return struct{}{}, fmt.Errorf("chunk %d-%d: encode checkpoint: %w", sp[0], sp[1], err)
			}
			if err := ckpt.Commit(ChunkKey(n, sp[0], sp[1]), b); err != nil {
				return struct{}{}, fmt.Errorf("chunk %d-%d: commit checkpoint: %w", sp[0], sp[1], err)
			}
		}
		return struct{}{}, nil
	})
	return out, err
}

// Seed derives a per-job RNG seed from a batch base seed and the
// job's identity. The derivation is pure (FNV-1a over base and id),
// so a job's seed depends only on what the job is — never on worker
// count, scheduling, or the presence of other jobs — and is always
// non-zero, because scenario configs treat seed 0 as "default".
func Seed(base int64, id string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(id))
	s := int64(h.Sum64())
	if s == 0 {
		return 1
	}
	return s
}

// SplitMix64 is one step of the splitmix64 generator: it advances
// state by the golden gamma and returns the new state and its mixed
// output. It is the repo's one small seedable PRNG — netsim's link
// faults and chaos's fault schedules both draw from it — and must
// stay inlinable, because lossy links call it once per delivery.
func SplitMix64(state uint64) (next, out uint64) {
	next = state + 0x9e3779b97f4a7c15
	z := next
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return next, z ^ (z >> 31)
}

// FNV64a is the 64-bit FNV-1a hash of s, allocation-free. It mixes a
// name into a seed, so two streams sharing one seed still draw
// independently.
func FNV64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
