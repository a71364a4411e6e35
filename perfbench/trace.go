package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// perLayer lists every metric a traced run reports, with its unit.
var perLayer = []struct{ name, unit string }{
	{"exec_ms.table1", "ms"}, {"exec_ms.table2", "ms"}, {"exec_ms.table3", "ms"}, {"exec_ms.table5", "ms"},
	{"exec_ms.flows", "ms"}, {"exec_ms.countermeasures", "ms"}, {"exec_ms.replay", "ms"}, {"exec_ms.conditions", "ms"},
	{"exec_ms.fig3", "ms"}, {"exec_ms.fig5", "ms"},
	{"render_ms", "ms"},
	{"webcorpus.generate_ms", "ms"}, {"crawler.baseline_ms", "ms"}, {"crawler.persistency_ms", "ms"}, {"crawler.survey_ms", "ms"},
	{"core.new_fleet_ms", "ms"}, {"fabric.run_ms", "ms"}, {"fabric.events_per_s", "1/s"},
	{"fabric.events", "count"}, {"fabric.windows", "count"}, {"fabric.boundary", "count"}, {"fabric.cpath_events", "count"},
	{"fabric.speedup_2w", "ratio"}, {"fabric.cpath_ratio_2w", "ratio"},
	{"labd.enqueue_ms", "ms"}, {"labd.queue_wait_ms", "ms"}, {"labd.exec_ms", "ms"}, {"labd.persist_ms", "ms"}, {"labd.fetch_ms", "ms"},
	{"store.syncs_per_run", "count"}, {"store.sync_ms_per_run", "ms"}, {"store.writes_per_run", "count"},
	{"store.bytes_written_per_run", "bytes"}, {"store.load_ms", "ms"},
	{"cpu_share.tcpsim", "share"}, {"cpu_share.httpsim", "share"}, {"cpu_share.cnc", "share"}, {"cpu_share.netsim", "share"},
	{"cpu_share.browser", "share"}, {"cpu_share.dom", "share"}, {"cpu_share.webcorpus", "share"}, {"cpu_share.crawler", "share"},
	{"cpu_share.core", "share"}, {"cpu_share.labd", "share"}, {"cpu_share.chaos", "share"}, {"cpu_share.artifact", "share"},
	{"cpu_share.experiments", "share"}, {"cpu_share.gc", "share"},
	{"gc.cycles_per_op", "count"}, {"gc.pause_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
}

// tracedOps is how many traced ops, and probes, a traced run makes of
// each workload other than the one it measures.
const tracedOps = 3

// runTraced reports the per-layer metrics. It sets up every workload,
// so that every layer's metrics are measured, then:
//
//  1. runs the named workload untraced for d/2;
//  2. runs it traced for d/2 under a CPU profile, which gives the CPU
//     split by package, the GC counters and the tracing overhead;
//  3. makes a few traced ops of every other workload;
//  4. makes every workload's direct per-layer probes.
//
// Span and value metrics are medians over all the traced ops that
// recorded them.
func runTraced(w workload, seed int64, d time.Duration) (result, error) {
	var benches []bench
	defer func() {
		for _, b := range benches {
			b.close()
		}
	}()
	t := newTracer()
	var measured bench
	for _, x := range workloads {
		b, err := x.setup(seed, t)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", x.name, err)
		}
		benches = append(benches, b)
		if x.name == w.name {
			measured = b
		}
	}

	untraced := loop(measured, d/2, 1, nil, nil)
	stopProfile, profile, err := startProfile()
	if err != nil {
		return result{}, err
	}
	traced := loop(measured, d/2, 1, t, nil)
	stopProfile()
	defer os.Remove(profile)
	res := result{
		Attempted: untraced.attempts + traced.attempts,
		Failed:    untraced.failed + traced.failed,
	}
	firstErr := untraced.firstErr
	if firstErr == nil {
		firstErr = traced.firstErr
	}
	var selfErr error
	for i, b := range benches {
		if b == measured {
			continue
		}
		for n := 0; n < tracedOps; n++ {
			res.Attempted++
			err := b.between(t)
			if err == nil {
				t.startOp()
				err = b.op(t)
				t.endOp()
			}
			if err != nil {
				res.Failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", workloads[i].name, err)
				}
			}
		}
	}
	for i, b := range benches {
		for n := 0; n < tracedOps; n++ {
			t.startOp()
			err := b.probe(t)
			t.endOp()
			if err != nil {
				return result{}, fmt.Errorf("%s probe: %w", workloads[i].name, err)
			}
		}
		if err := b.selftest(); err != nil && selfErr == nil {
			selfErr = fmt.Errorf("%s: %w", workloads[i].name, err)
		}
	}
	report(w, loopResult{attempts: res.Attempted, failed: res.Failed, firstErr: firstErr}, selfErr)
	res.Correct = res.Failed == 0 && selfErr == nil
	if len(traced.samples) == 0 || len(untraced.samples) == 0 {
		return res, fmt.Errorf("no op succeeded: %v", firstErr)
	}

	values := t.medians()
	shares, err := cpuShares(profile)
	if err != nil {
		return res, err
	}
	for pkg, share := range shares {
		values["cpu_share."+pkg] = share
	}
	ops := float64(len(traced.samples))
	values["gc.cycles_per_op"] = float64(traced.gcCycles) / ops
	values["gc.pause_ms_per_op"] = float64(traced.gcPause) / 1e6 / ops
	values["trace.overhead_pct"] = (untraced.opsPerSec()/traced.opsPerSec() - 1) * 100

	res.Metrics = map[string]metric{}
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			return res, fmt.Errorf("traced run recorded no %s", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// startProfile starts a CPU profile into a file under .bench_build in
// the working directory.
func startProfile() (stop func(), path string, err error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, "", err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, "", err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, f.Name(), nil
}

const internalPrefix = "masterparasite/internal/"

// cpuShares splits a CPU profile's samples by package. Each sample goes
// to the innermost masterparasite/internal package on its stack, so
// runtime work such as allocation is charged to its caller; a sample
// with none that runs a GC background worker goes to "gc". The shares
// are of all samples.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	byPkg := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	pkg := ""
	flush := func() {
		total += value
		if pkg != "" {
			byPkg[pkg] += value
		}
		value, pkg = 0, ""
	}
	gcRoots := []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20) // generic instantiations make long frame names
	inStack, first := false, false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "-----------+") {
			flush()
			inStack, first = true, true
			continue
		}
		fn := strings.TrimSpace(sc.Text())
		if !inStack || fn == "" {
			continue
		}
		if first {
			// A stack's first line is its sample value, then its leaf frame.
			v, rest, _ := strings.Cut(fn, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("go tool pprof -traces: bad sample line %q", sc.Text())
			}
			value, fn, first = d, strings.TrimSpace(rest), false
		}
		fn = strings.TrimSuffix(fn, " (inline)")
		switch {
		case pkg != "":
			// the innermost package is already found
		case strings.HasPrefix(fn, internalPrefix):
			rest := fn[len(internalPrefix):]
			if i := strings.IndexAny(rest, "./"); i > 0 {
				pkg = rest[:i]
			}
		default:
			for _, root := range gcRoots {
				if fn == root {
					pkg = "gc"
				}
			}
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no samples", profile)
	}
	shares := map[string]float64{}
	for _, m := range perLayer {
		if p, ok := strings.CutPrefix(m.name, "cpu_share."); ok {
			shares[p] = float64(byPkg[p]) / float64(total)
		}
	}
	return shares, nil
}
