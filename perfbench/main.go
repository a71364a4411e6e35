// Command perfbench is the repository's end-to-end benchmark. Each run
// sets up one workload, drives it as a closed loop with one client for
// a fixed time, checks every op's output, and prints its metrics as one
// JSON object on the last line of standard output.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload kill-chain --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of the workload.
// Throughput and CPU per op are medians over consecutive slices of the
// run, so a burst of interference from outside the process moves a
// slice rather than the result. setup_s is the median over several
// fresh processes of the time from starting the process to the first
// timed op. Every timing is scaled to a host of fixed speed by a
// reference op made between ops (see reference.go); the header shows
// the unscaled figures.
// With --trace 1 it reports the per-layer metrics instead: spans taken
// around the benchmark's calls into each layer, store and fabric
// counters, a CPU profile split by package, and GC counters.
//
// Timed work runs on one worker (one-worker runner pools, Fleet.Run(1),
// labd with one fleet and one worker) and the process on one P
// (GOMAXPROCS=1), so garbage collection shares the op's core rather
// than racing for a second core that other tenants of a shared host
// also use. The labd store lives in process memory (see memFS).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// setupProbes is how many fresh processes a timed run starts to time
// its set-up; setup_s is the median.
const setupProbes = 9

// readyLine is what a --setup-only process prints once it is set up.
const readyLine = "ready\n"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: kill-chain, crawl-study, fleet-drain or labd-serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print \"ready\" and exit; timed runs start such processes to measure setup_s")
	flag.Parse()
	runtime.GOMAXPROCS(1)
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || *trace != 0 && *trace != 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *setupOnly {
		b, err := w.setup(*seed, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Print(readyLine)
		b.close()
		return
	}
	printHeader(w, *seed, *seconds, *trace)
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 0 {
		res, err = runTimed(w, *seed, d)
	} else {
		res, err = runTraced(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printHeader(w workload, seed int64, seconds float64, trace int) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, seed, seconds, trace)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Println("# labd store: memfs (in-process memory; fsync is a no-op, as on tmpfs)")
	fmt.Println("# timed work: 1 worker on 1 P, closed loop, 1 client")
	for _, w := range workloads {
		fmt.Printf("# why %s: %s\n", w.name, w.why)
	}
}

// runTimed reports the end-to-end metrics: set-up is timed in fresh
// processes, then the workload is set up here and its ops run untraced
// for d.
func runTimed(w workload, seed int64, d time.Duration) (result, error) {
	setupTimes := make([]float64, setupProbes)
	for i := range setupTimes {
		var err error
		if setupTimes[i], err = timeSetup(w, seed); err != nil {
			return result{}, fmt.Errorf("%s setup probe: %w", w.name, err)
		}
	}
	b, err := w.setup(seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer b.close()
	ref, err := newReference()
	if err != nil {
		return result{}, err
	}
	defer ref.close()
	r := loop(b, d, minOps, nil, ref)
	res := result{Attempted: r.attempts, Failed: r.failed}
	selfErr := b.selftest()
	report(w, r, selfErr)
	// The peak is shown but not reported as a metric: one late GC
	// cycle can raise it by a third, so mem_mb is the median instead.
	fmt.Printf("# peak RSS: %.1f MB\n", float64(peakRSS())/1e6)
	res.Correct = r.failed == 0 && selfErr == nil
	if len(r.samples) == 0 {
		return res, fmt.Errorf("no op succeeded: %v", r.firstErr)
	}
	n := float64(len(r.samples))
	var held []float64
	var bytes, allocs uint64
	for _, s := range r.samples {
		held = append(held, float64(s.held)/1e6)
		bytes += s.bytes
		allocs += s.allocs
	}
	setup := median(setupTimes)
	raw := r.timings()
	scale := scaleToReference(&r)
	t := r.timings()
	fmt.Printf("# reference op: %d made, median scale %.4f\n", len(r.refs), scale)
	fmt.Printf("# unscaled: ops_per_s=%.4g op_p50_ms=%.4g op_p90_ms=%.4g cpu_s_per_op=%.4g setup_s=%.4g\n",
		raw.opsPerSec, raw.p50, raw.p90, raw.cpu, setup)
	res.Metrics = map[string]metric{
		"ops_per_s":       {t.opsPerSec, "1/s"},
		"op_p50_ms":       {t.p50, "ms"},
		"op_p90_ms":       {t.p90, "ms"},
		"cpu_s_per_op":    {t.cpu, "s"},
		"alloc_mb_per_op": {float64(bytes) / 1e6 / n, "MB"},
		"allocs_per_op":   {float64(allocs) / n, "count"},
		"mem_mb":          {median(held), "MB"},
		"setup_s":         {setup * scale, "s"},
		"success_rate":    {1 - float64(r.failed)/float64(r.attempts), "ratio"},
	}
	return res, nil
}

// timeSetup starts a --setup-only process for w and returns the
// seconds from starting it until it is ready for its first timed op.
func timeSetup(w workload, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	took := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || line != readyLine {
		return 0, fmt.Errorf("set-up process printed %q: %v", line, readErr)
	}
	return took.Seconds(), nil
}

// report prints a human-readable summary of a loop before the JSON line.
func report(w workload, r loopResult, selfErr error) {
	fmt.Printf("# %s: %d ops attempted, %d failed, error_rate=%g\n",
		w.name, r.attempts, r.failed, float64(r.failed)/float64(max(r.attempts, 1)))
	if r.firstErr != nil {
		fmt.Printf("# first failure: %v\n", r.firstErr)
	}
	if selfErr != nil {
		fmt.Printf("# self-test FAILED: %v\n", selfErr)
	} else {
		fmt.Println("# self-test: every corrupted output failed its check")
	}
}
