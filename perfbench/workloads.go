package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/chaos"
	"masterparasite/internal/core"
	"masterparasite/internal/crawler"
	_ "masterparasite/internal/experiments" // registers the paper's artifacts
	"masterparasite/internal/labd"
	"masterparasite/internal/runner"
	"masterparasite/internal/webcorpus"
)

// workload is one benchmark workload: its name, why it was chosen,
// and how to set it up for a seed. A traced run passes its tracer to
// set-up.
type workload struct {
	name, why string
	setup     func(seed int64, t *tracer) (bench, error)
}

// workloads lists every workload a run can set up. A traced run sets up
// all of them, so it measures every layer's metrics.
var workloads = []workload{
	{
		name: "kill-chain",
		why:  "the attack data plane (tcpsim, httpsim, cnc, netsim) regenerating the paper's kill-chain artifacts; dom, webcorpus and crawler do almost none of the work",
		setup: func(int64, *tracer) (bench, error) {
			return newArtifactBench(killChainIDs, nil)
		},
	},
	{
		name: "crawl-study",
		why:  "the crawl pipeline (dom, webcorpus, crawler) behind Figs. 3 and 5; tcpsim and cnc are absent",
		setup: func(seed int64, _ *tracer) (bench, error) {
			return newArtifactBench(crawlIDs, crawlParams(seed))
		},
	},
	{
		name: "fleet-drain",
		why:  "the sharded fabric event engine (netsim, core) draining a 12,800-bot fleet; netsim as sharded windows rather than one small TCP network",
		setup: func(seed int64, _ *tracer) (bench, error) {
			return newFleetBench(seed)
		},
	},
	{
		name: "labd-serve",
		why:  "the only workload carried by labd's queue, record persistence and artifact fetch: enqueue, wait and fetch through the in-process client",
		setup: func(_ int64, t *tracer) (bench, error) {
			return newLabdBench(t)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// killChainIDs are regenerated by one kill-chain op, in this order.
var killChainIDs = []string{"table1", "table2", "table3", "table5", "flows", "countermeasures", "replay", "conditions"}

// crawlIDs are regenerated by one crawl-study op.
var crawlIDs = []string{"fig3", "fig5"}

// goldenIDs are the artifacts cmd/experiments/testdata/golden-all.txt
// holds, in its order. Those a kill-chain op regenerates must match it.
var goldenIDs = []string{"table1", "table2", "table3", "table4", "table5", "fig3", "fig5", "flows", "countermeasures"}

const goldenPath = "cmd/experiments/testdata/golden-all.txt"

// crawlParams sizes fig3/fig5 as the golden file does and derives the
// corpus seed from the benchmark seed.
func crawlParams(seed int64) map[string]int {
	return map[string]int{"sites": 400, "days": 20, "seed": int(uint64(seed)%1_000_000) + 1}
}

// artifactBench regenerates registry artifacts on a one-worker pool and
// renders them as text, as cmd/experiments does.
type artifactBench struct {
	noHooks
	pool   *runner.Runner
	specs  []artifact.Spec
	params map[string]int
	text   artifact.Renderer
	buf    bytes.Buffer
	want   map[string]string // artifact ID → SHA-256 its rendering must have
	warm   map[string][]byte // the warm-up op's renderings, for the self-test
}

func newArtifactBench(ids []string, params map[string]int) (*artifactBench, error) {
	b := &artifactBench{pool: runner.New(1), params: params, want: map[string]string{}, warm: map[string][]byte{}}
	var err error
	if b.text, err = artifact.RendererFor("text"); err != nil {
		return nil, err
	}
	for _, id := range ids {
		spec, ok := artifact.Get(id)
		if !ok {
			return nil, fmt.Errorf("artifact %q is not registered", id)
		}
		b.specs = append(b.specs, spec)
	}
	golden, err := goldenSections()
	if err != nil {
		return nil, err
	}
	// An artifact without params must render its golden section; the
	// rest must reproduce their warm-up rendering.
	for _, spec := range b.specs {
		if g, ok := golden[spec.ID]; ok && len(spec.Params) == 0 {
			b.want[spec.ID] = artifact.Fingerprint(g)
		}
	}
	if err := b.run(nil, func(id string, out []byte) error {
		b.warm[id] = append([]byte(nil), out...)
		if _, ok := b.want[id]; !ok {
			b.want[id] = artifact.Fingerprint(out)
		}
		return b.check(id, out)
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// goldenSections splits the golden text output into one rendering per
// artifact.
func goldenSections() (map[string][]byte, error) {
	g, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	starts := make([]int, len(goldenIDs))
	for i, id := range goldenIDs {
		spec, _ := artifact.Get(id)
		starts[i] = bytes.Index(g, []byte("== "+spec.Title+" ==\n"))
		if starts[i] < 0 || i > 0 && starts[i] <= starts[i-1] || i == 0 && starts[i] != 0 {
			return nil, fmt.Errorf("%s: section %q missing or out of order", goldenPath, spec.Title)
		}
	}
	out := map[string][]byte{}
	for i, id := range goldenIDs {
		end := len(g)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		out[id] = g[starts[i]:end]
	}
	return out, nil
}

func (b *artifactBench) op(t *tracer) error {
	return b.run(t, b.check)
}

// run regenerates and renders every artifact, handing each rendering
// to check. It keeps going after a failed check and returns the first
// error.
func (b *artifactBench) run(t *tracer, check func(id string, out []byte) error) error {
	var first error
	for _, spec := range b.specs {
		t.begin("exec_ms." + spec.ID)
		env, err := spec.NewEnv(b.pool, b.params)
		var res *artifact.Result
		if err == nil {
			res, err = spec.Exec(env)
		}
		t.end()
		if err == nil {
			t.begin("render_ms")
			b.buf.Reset()
			if err = b.text.Render(&b.buf, res); err == nil {
				err = check(spec.ID, b.buf.Bytes())
			}
			t.end()
		}
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", spec.ID, err)
		}
	}
	return first
}

func (b *artifactBench) check(id string, out []byte) error {
	if got := artifact.Fingerprint(out); got != b.want[id] {
		return fmt.Errorf("rendering has sha256 %s, want %s", got, b.want[id])
	}
	return nil
}

func (b *artifactBench) selftest() error {
	for _, spec := range b.specs {
		out := append([]byte(nil), b.warm[spec.ID]...)
		out[len(out)/2] ^= 1
		if b.check(spec.ID, out) == nil {
			return fmt.Errorf("%s with one byte flipped passed its check", spec.ID)
		}
	}
	return nil
}

// probe makes direct calls into webcorpus and crawler with the inputs
// fig3 and fig5 use; other artifact workloads have nothing to probe.
func (b *artifactBench) probe(t *tracer) error {
	if b.params == nil {
		return nil
	}
	t.begin("webcorpus.generate_ms")
	corpus := webcorpus.Generate(webcorpus.Params{Sites: b.params["sites"], Seed: int64(b.params["seed"])})
	t.end()
	t.begin("crawler.baseline_ms")
	base := crawler.CrawlBaseline(b.pool, corpus)
	t.end()
	t.begin("crawler.persistency_ms")
	res := crawler.CrawlPersistencyFrom(b.pool, base, b.params["days"])
	t.end()
	t.begin("crawler.survey_ms")
	survey := crawler.SurveyHeaders(b.pool, corpus)
	t.end()
	if res.Sites == 0 || survey.Sites != b.params["sites"] {
		return fmt.Errorf("crawl probe: %d sites crawled, survey of %d", res.Sites, survey.Sites)
	}
	return nil
}

// fleetConfig is the topology of BenchmarkFleet_ShardedScaling with a
// seed derived from the benchmark seed.
func fleetConfig(seed int64) core.FleetConfig {
	return core.FleetConfig{LANs: 32, BotsPerLAN: 400, Seed: int64(uint64(seed)%1_000_000) + 1}
}

// fleetBench builds and drains one fleet per op on one shard worker.
type fleetBench struct {
	noHooks
	cfg  core.FleetConfig
	warm core.FleetResult // the warm-up drain
}

func newFleetBench(seed int64) (*fleetBench, error) {
	b := &fleetBench{cfg: fleetConfig(seed)}
	res, err := b.drain(nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Seeded gossip with fanout 3 leaves some bots untouched, so the
	// warm-up drain, not the fleet size, fixes how many bots a drain
	// must infect.
	if res.Infected == 0 || res.Infected != res.Registered || res.Infected != res.Commanded {
		return nil, fmt.Errorf("warm-up: fleet of %d: infected %d, registered %d, commanded %d",
			res.Bots, res.Infected, res.Registered, res.Commanded)
	}
	b.warm = res
	return b, nil
}

func (b *fleetBench) drain(t *tracer) (core.FleetResult, error) {
	t.begin("core.new_fleet_ms")
	f, err := core.NewFleet(b.cfg)
	t.end()
	if err != nil {
		return core.FleetResult{}, err
	}
	t.begin("fabric.run_ms")
	start := time.Now()
	res, err := f.Run(1)
	run := time.Since(start)
	t.end()
	st := f.Fabric().Stats()
	t.value("fabric.events", float64(st.Events))
	t.value("fabric.windows", float64(st.Windows))
	t.value("fabric.boundary", float64(st.Boundary))
	t.value("fabric.cpath_events", float64(st.CriticalPath))
	t.value("fabric.events_per_s", float64(st.Events)/run.Seconds())
	return res, err
}

func (b *fleetBench) op(t *tracer) error {
	res, err := b.drain(t)
	if err != nil {
		return err
	}
	return b.check(res)
}

// check requires every infected bot to be registered with the C&C
// master and commanded, and the drain to infect as many bots and
// execute as many events as the warm-up drain.
func (b *fleetBench) check(res core.FleetResult) error {
	w := b.warm
	if res.Bots != w.Bots || res.Infected != w.Infected || res.Registered != w.Infected ||
		res.Commanded != w.Infected || len(res.Infections) != w.Infected {
		return fmt.Errorf("fleet of %d: infected %d (%d logged), registered %d, commanded %d; warm-up infected %d",
			res.Bots, res.Infected, len(res.Infections), res.Registered, res.Commanded, w.Infected)
	}
	if res.Events != w.Events {
		return fmt.Errorf("fleet drained %d events, warm-up drained %d", res.Events, w.Events)
	}
	return nil
}

func (b *fleetBench) selftest() error {
	res := b.warm
	res.Infected--
	res.Registered--
	res.Commanded--
	res.Infections = res.Infections[:len(res.Infections)-1]
	if b.check(res) == nil {
		return errors.New("a fleet result missing one bot passed its check")
	}
	return nil
}

// probe records measured against modelled scaling on two shard
// workers: wall time of Run(1) over Run(2) on fresh fleets of the same
// topology, beside the fabric's critical-path ratio. Both runs get two
// Ps, so that the second worker has a core to run on.
func (b *fleetBench) probe(t *tracer) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wall [3]time.Duration
	var cpath [3]int
	for _, workers := range []int{1, 2} {
		f, err := core.NewFleet(b.cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := f.Run(workers); err != nil {
			return err
		}
		wall[workers] = time.Since(start)
		cpath[workers] = f.Fabric().Stats().CriticalPath
	}
	t.value("fabric.speedup_2w", wall[1].Seconds()/wall[2].Seconds())
	t.value("fabric.cpath_ratio_2w", float64(cpath[1])/float64(cpath[2]))
	return nil
}

// labdBench serves one flows run per op: POST /v1/runs, Server.Wait,
// then GET the artifact, all through the in-process client and so
// through the same Route as every transport.
type labdBench struct {
	seeded *memFS      // the pre-seeded store every server starts from
	counts *countingFS // the store instrumentation, in traced runs
	srv    *labd.Server
	client *labd.Client
	served int // ops since the last reset
	want   string
	warm   []byte
}

const (
	labdStore = "store"
	// labdSeeded is how many done runs the store holds when a server
	// opens on it.
	labdSeeded = 32
	// labdResetEvery bounds how far the store and the server's index
	// grow before the server is reopened on the pre-seeded store.
	labdResetEvery = 8
)

var labdRequest = []byte(`{"spec":"flows","format":"json"}`)

// newLabdBench pre-seeds a store and opens a server on a copy of it.
// With a tracer, the store is instrumented and recovery is timed.
func newLabdBench(t *tracer) (*labdBench, error) {
	b := &labdBench{seeded: newMemFS()}
	if t != nil {
		b.counts = &countingFS{}
	}
	spec, _ := artifact.Get("flows")
	jsonRenderer, err := artifact.RendererFor("json")
	if err != nil {
		return nil, err
	}
	_, batch, err := artifact.RunRendered(spec, runner.New(1), nil, jsonRenderer)
	if err != nil {
		return nil, err
	}
	b.want = artifact.Fingerprint(batch)

	// Pre-seed the store by serving real runs into it.
	srv, err := labd.Open(labd.Config{StoreDir: labdStore, Fleets: 1, Workers: 1, FS: b.seeded})
	if err != nil {
		return nil, err
	}
	b.srv, b.client = srv, labd.NewClient(srv)
	for i := 0; i < labdSeeded; i++ {
		if _, err := b.serve(nil); err != nil {
			b.close()
			return nil, fmt.Errorf("pre-seed: %w", err)
		}
	}
	if err := b.recover(t); err != nil {
		return nil, err
	}
	if b.warm, err = b.serve(nil); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// reset closes the server and opens a new one, recovering from a fresh
// copy of the pre-seeded store, so every op sees a store of the same
// size whatever number of ops ran before it.
func (b *labdBench) reset(t *tracer) error {
	b.close()
	var fsys chaos.FS = b.seeded.clone()
	if b.counts != nil {
		b.counts.fs = fsys
		fsys = b.counts
	}
	t.begin("store.load_ms")
	srv, err := labd.Open(labd.Config{StoreDir: labdStore, Fleets: 1, Workers: 1, FS: fsys})
	t.end()
	if err != nil {
		return err
	}
	if n := len(srv.List()); n != labdSeeded {
		return fmt.Errorf("recovered %d runs, want %d", n, labdSeeded)
	}
	b.srv, b.client, b.served = srv, labd.NewClient(srv), 0
	return nil
}

// recover is reset as an op of its own.
func (b *labdBench) recover(t *tracer) error {
	t.startOp()
	defer t.endOp()
	return b.reset(t)
}

func (b *labdBench) between(t *tracer) error {
	if b.served < labdResetEvery {
		return nil
	}
	return b.recover(t)
}

func (b *labdBench) op(t *tracer) error {
	var before storeCounts
	if b.counts != nil {
		before = b.counts.counts()
	}
	out, err := b.serve(t)
	if err != nil {
		return err
	}
	if b.counts != nil {
		after := b.counts.counts()
		t.value("store.syncs_per_run", float64(after.syncs-before.syncs))
		t.value("store.sync_ms_per_run", float64(after.syncNanos-before.syncNanos)/1e6)
		t.value("store.writes_per_run", float64(after.writes-before.writes))
		t.value("store.bytes_written_per_run", float64(after.bytesWritten-before.bytesWritten))
	}
	return b.check(out)
}

// serve runs one flows run through the API and returns the served
// artifact.
func (b *labdBench) serve(t *tracer) ([]byte, error) {
	b.served++
	t.begin("labd.enqueue_ms")
	resp := b.client.Do(http.MethodPost, "/v1/runs", labdRequest)
	t.end()
	if resp.Status != http.StatusAccepted {
		return nil, fmt.Errorf("enqueue: %d %s", resp.Status, resp.Body)
	}
	var queued struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp.Body, &queued); err != nil {
		return nil, fmt.Errorf("enqueue response: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rec, err := b.srv.Wait(ctx, queued.ID)
	if err != nil {
		return nil, err
	}
	if rec.Status != labd.StatusDone {
		return nil, fmt.Errorf("run %s ended %s: %s", rec.ID, rec.Status, rec.Error)
	}
	stageGaps(t, rec.Stages)
	t.begin("labd.fetch_ms")
	resp = b.client.Do(http.MethodGet, "/v1/runs/"+queued.ID+"/artifact", nil)
	t.end()
	if resp.Status != http.StatusOK {
		return nil, fmt.Errorf("fetch: %d %s", resp.Status, resp.Body)
	}
	return resp.Body, nil
}

// stageGaps records the time between a run's recorded stages: queued to
// running is queue wait, running to rendering is execution, rendering
// to done is rendering and persisting the artifact.
func stageGaps(t *tracer, stages []labd.Stage) {
	if t == nil {
		return
	}
	at := map[labd.Status]time.Time{}
	for _, s := range stages {
		at[s.Stage] = s.At
	}
	gap := func(name string, from, to labd.Status) {
		t.value(name, float64(at[to].Sub(at[from]))/1e6)
	}
	gap("labd.queue_wait_ms", labd.StatusQueued, labd.StatusRunning)
	gap("labd.exec_ms", labd.StatusRunning, labd.StatusRendering)
	gap("labd.persist_ms", labd.StatusRendering, labd.StatusDone)
}

func (b *labdBench) check(out []byte) error {
	if got := artifact.Fingerprint(out); got != b.want {
		return fmt.Errorf("served artifact has sha256 %s, batch render has %s", got, b.want)
	}
	return nil
}

func (b *labdBench) selftest() error {
	out := append([]byte(nil), b.warm...)
	out[len(out)/2] ^= 1
	if b.check(out) == nil {
		return errors.New("a served artifact with one byte flipped passed its check")
	}
	return nil
}

// probe times recovery: the server is reopened on the pre-seeded store.
func (b *labdBench) probe(t *tracer) error { return b.reset(t) }

func (b *labdBench) close() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := b.srv.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "labd close:", err)
	}
	b.srv = nil
}
