package labd_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/chaos"
	"masterparasite/internal/daemon"
	"masterparasite/internal/labd"
	"masterparasite/internal/runner"
)

// ---- checkpointable test specs --------------------------------------
//
// labd-t-ckpt is the resumable workhorse of the chaos tests: a
// deterministic artifact that drives its fleet through runner.ResumeMap,
// so a crashed run restarted over its checkpoint skips completed
// chunks. ckptComputes counts chunk computations globally; tests that
// assert on the count are not parallel (they own the counter while
// they run).

var ckptComputes atomic.Int64

// flakyTrip, when set, makes the next labd-t-flaky-ckpt execution fail
// transiently (consumed by the first attempt). Owned by the SSE restart
// test, which is not parallel.
var flakyTrip atomic.Bool

func ckptRun(env artifact.Env, n int) (*artifact.Result, error) {
	chunks, err := runner.ResumeMap(env.Runner, n, env.Checkpoint, func(lo, hi int) (kvDataset, error) {
		ckptComputes.Add(1)
		var d kvDataset
		for i := lo; i < hi; i++ {
			d = append(d, struct {
				Name  string `json:"name"`
				Value int    `json:"value"`
			}{Name: fmt.Sprintf("row%d", i), Value: i*i + 7})
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	var all kvDataset
	for _, c := range chunks {
		all = append(all, c...)
	}
	var text strings.Builder
	for _, r := range all {
		fmt.Fprintf(&text, "%s = %d\n", r.Name, r.Value)
	}
	return &artifact.Result{Text: text.String(), Dataset: all}, nil
}

func init() {
	artifact.MustRegister(artifact.Spec{
		ID: "labd-t-ckpt", Title: "labd checkpointable artifact", Section: "test",
		Resumable: true,
		Params:    []artifact.Param{{Name: "labd-rows", Usage: "row count", Default: 256, Min: 1}},
		Run: func(env artifact.Env) (*artifact.Result, error) {
			return ckptRun(env, env.Param("labd-rows"))
		},
	})
	artifact.MustRegister(artifact.Spec{
		ID: "labd-t-flaky-ckpt", Title: "labd transiently-failing checkpointable artifact", Section: "test",
		Resumable: true,
		Run: func(env artifact.Env) (*artifact.Result, error) {
			if flakyTrip.CompareAndSwap(true, false) {
				return nil, fmt.Errorf("first attempt wobbled: %w", artifact.ErrTransient)
			}
			return ckptRun(env, 64)
		},
	})
}

// batchRender regenerates a spec exactly as the batch CLI would and
// returns the rendered bytes plus the manifest fingerprint — the
// ground truth every recovered daemon run must reproduce.
func batchRender(t *testing.T, specID, format string, overrides map[string]int) ([]byte, string) {
	t.Helper()
	spec, ok := artifact.Get(specID)
	if !ok {
		t.Fatalf("spec %s not registered", specID)
	}
	renderer, err := artifact.RendererFor(format)
	if err != nil {
		t.Fatal(err)
	}
	res, rendered, err := artifact.RunRendered(spec, runner.New(1), overrides, renderer)
	if err != nil {
		t.Fatal(err)
	}
	manifest := artifact.NewManifest(format, 1)
	manifest.Add(spec, res, rendered)
	return rendered, manifest.Artifacts[0].SHA256
}

func closeServer(t *testing.T, srv *labd.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// scenarioSeed derives a deterministic chaos seed from the scenario's
// coordinates, so a failing matrix cell reproduces by name.
func scenarioSeed(site string, hit, workers int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", site, hit, workers)
	s := int64(h.Sum64())
	if s == 0 {
		return 1
	}
	return s
}

// TestKillPointRecoveryMatrix is the tentpole gate: enumerate every
// registered fault site along enqueue → run → render → persist, crash
// the "process" at that site, restart over the surviving disk state,
// and verify the recovery invariants:
//
//   - no acknowledged run is ever lost;
//   - a sequence number, once issued, is never reissued;
//   - an in-flight resumable run resumes and its artifact carries the
//     exact batch-CLI manifest fingerprint;
//   - an in-flight non-resumable run is latched failed ("interrupted by
//     restart") — never left dangling;
//   - runs finished before the crash still serve their artifacts.
//
// The assertions are invariant-based on purpose: which writes became
// durable before a kill depends on where the site sits in the
// operation sequence, so the matrix checks properties that must hold
// at every interleaving instead of golden per-site outcomes.
func TestKillPointRecoveryMatrix(t *testing.T) {
	t.Parallel()
	sites := chaos.Sites()
	if len(sites) < 11 {
		t.Fatalf("expected the full store.* + fleet.* site registry, got %d: %v", len(sites), sites)
	}
	hits := []int{1, 2, 5}
	if testing.Short() {
		hits = []int{1}
	}
	wantBytes, wantSHA := batchRender(t, "labd-t-ckpt", "json", nil)
	noop := func(time.Duration) {}

	for _, site := range sites {
		for _, hit := range hits {
			for _, workers := range []int{1, 4, 8} {
				site, hit, workers := site, hit, workers
				t.Run(fmt.Sprintf("%s/hit%d/w%d", site.Name, hit, workers), func(t *testing.T) {
					t.Parallel()
					dir := t.TempDir()

					// Phase 0: prime a healthy store — one finished run the
					// crash must not disturb, plus .tmp debris whose sweep
					// exercises store.remove during recovery.
					srv0, err := labd.Open(labd.Config{StoreDir: dir, Fleets: 1, Workers: workers, Now: fakeClock(), Sleep: noop})
					if err != nil {
						t.Fatal(err)
					}
					prime, err := srv0.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
					if err != nil {
						t.Fatal(err)
					}
					if waitDone(t, srv0, prime.ID).Status != labd.StatusDone {
						t.Fatal("prime run did not finish")
					}
					closeServer(t, srv0)
					if err := os.WriteFile(filepath.Join(dir, "run-000050.json.tmp"), []byte(`{"id":"run-0`), 0o644); err != nil {
						t.Fatal(err)
					}

					// Phase 1: the same daemon, chaos-armed: crash exactly at
					// the hit-th crossing of this site. Track which run IDs
					// the dying process acknowledged to its clients.
					ctrl := chaos.New(scenarioSeed(site.Name, hit, workers))
					ctrl.ArmAt(site.Name, hit, chaos.Crash)
					var acked []string
					resumableID := ""
					srv1, err := labd.Open(labd.Config{
						StoreDir: dir, Fleets: 1, Workers: workers,
						Chaos: ctrl, FS: chaos.BindFS(ctrl),
						Now: fakeClock(), Sleep: noop,
					})
					if err != nil {
						// Recovery itself crossed the kill-point — legitimate,
						// but only a kill excuses the failure.
						if !ctrl.Killed() {
							t.Fatalf("chaos-armed open failed without a kill: %v", err)
						}
					} else {
						if rec, err := srv1.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ckpt", Format: "json"}); err == nil {
							acked = append(acked, rec.ID)
							resumableID = rec.ID
						} else if !ctrl.Killed() {
							t.Fatalf("enqueue failed without a kill: %v", err)
						}
						if rec, err := srv1.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"}); err == nil {
							acked = append(acked, rec.ID)
						} else if !ctrl.Killed() {
							t.Fatalf("enqueue failed without a kill: %v", err)
						}
						deadline := time.Now().Add(30 * time.Second)
						for !ctrl.Killed() {
							terminal := 0
							for _, id := range acked {
								if r, ok := srv1.Get(id); ok && r.Status.Terminal() {
									terminal++
								}
							}
							if terminal == len(acked) {
								break
							}
							if time.Now().After(deadline) {
								t.Fatal("phase 1 never settled")
							}
							time.Sleep(time.Millisecond)
						}
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						_ = srv1.Close(ctx) // a killed process does not drain politely
						cancel()
					}
					if hit == 1 && ctrl.Fired(site.Name) == 0 {
						t.Fatalf("site %s never fired on its first crossing — the matrix does not cover it", site.Name)
					}

					// Phase 2: reboot over the debris, chaos off. Every
					// invariant must hold regardless of where the kill landed.
					srv2 := openServer(t, labd.Config{StoreDir: dir, Fleets: 1, Workers: workers, Sleep: noop})
					p2, ok := srv2.Get(prime.ID)
					if !ok || p2.Status != labd.StatusDone {
						t.Fatalf("primed run lost or no longer done: %+v", p2)
					}
					if _, _, err := srv2.Artifact(prime.ID); err != nil {
						t.Fatalf("primed artifact unreadable after recovery: %v", err)
					}
					maxID := prime.ID
					for _, id := range acked {
						if id > maxID {
							maxID = id
						}
						if _, ok := srv2.Get(id); !ok {
							t.Fatalf("acknowledged run %s lost across the crash", id)
						}
						final := waitDone(t, srv2, id)
						if id == resumableID {
							if final.Status != labd.StatusDone {
								t.Fatalf("resumable run %s = %s (%q), want done", id, final.Status, final.Error)
							}
							if final.SHA256 != wantSHA {
								t.Fatalf("resumed fingerprint %s != batch manifest %s", final.SHA256, wantSHA)
							}
							body, _, err := srv2.Artifact(id)
							if err != nil {
								t.Fatal(err)
							}
							if string(body) != string(wantBytes) {
								t.Fatalf("resumed artifact bytes diverge from the batch CLI render")
							}
						} else if final.Status != labd.StatusDone &&
							!(final.Status == labd.StatusFailed && strings.Contains(final.Error, "interrupted by restart")) {
							t.Fatalf("run %s = %s (%q), want done or interrupted-by-restart", id, final.Status, final.Error)
						}
					}
					fresh, err := srv2.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
					if err != nil {
						t.Fatal(err)
					}
					if fresh.ID <= maxID {
						t.Fatalf("fresh run %s reuses ID space (max prior %s)", fresh.ID, maxID)
					}
				})
			}
		}
	}
}

// TestCheckpointResumeSkipsCompletedChunks pins the checkpoint math: a
// run killed partway through its fleet recomputes only the chunks that
// were not durably committed, and the resumed output is byte-identical
// to an uninterrupted batch render.
//
// Not parallel: asserts exact deltas on the global chunk-compute
// counter.
func TestCheckpointResumeSkipsCompletedChunks(t *testing.T) {
	dir := t.TempDir()
	noop := func(time.Duration) {}
	wantBytes, wantSHA := batchRender(t, "labd-t-ckpt", "json", nil)

	// With 4 workers, 256 rows split into 16 chunks of 16. The store's
	// WriteFile sequence is: record queued (1), record running (2), then
	// one checkpoint rewrite per committed chunk (3..18). Killing write
	// 10 leaves exactly 7 chunks durable.
	ctrl := chaos.New(scenarioSeed("ckpt-resume", 10, 4))
	ctrl.ArmAt(chaos.SiteWrite, 10, chaos.Crash)
	srv1, err := labd.Open(labd.Config{
		StoreDir: dir, Fleets: 1, Workers: 4,
		Chaos: ctrl, FS: chaos.BindFS(ctrl),
		Now: fakeClock(), Sleep: noop,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := srv1.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ckpt", Format: "json"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !ctrl.Killed() {
		if time.Now().After(deadline) {
			t.Fatal("kill-point never fired")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv1.Close(ctx)
	cancel()

	before := ckptComputes.Load()
	srv2 := openServer(t, labd.Config{StoreDir: dir, Fleets: 1, Workers: 4, Sleep: noop})
	final := waitDone(t, srv2, rec.ID)
	resumedComputes := ckptComputes.Load() - before

	if final.Status != labd.StatusDone {
		t.Fatalf("resumed run = %s (%q), want done", final.Status, final.Error)
	}
	if final.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", final.Resumes)
	}
	if resumedComputes != 9 {
		t.Fatalf("resumed run computed %d chunks, want 9 (7 of 16 were durable)", resumedComputes)
	}
	var stages []labd.Status
	for _, st := range final.Stages {
		stages = append(stages, st.Stage)
	}
	want := []labd.Status{
		labd.StatusQueued, labd.StatusRunning, labd.StatusResumed,
		labd.StatusRunning, labd.StatusRendering, labd.StatusDone,
	}
	if fmt.Sprint(stages) != fmt.Sprint(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	if final.SHA256 != wantSHA {
		t.Fatalf("resumed fingerprint %s != batch manifest %s", final.SHA256, wantSHA)
	}
	body, _, err := srv2.Artifact(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(wantBytes) {
		t.Fatal("resumed artifact bytes diverge from the batch CLI render")
	}
	if _, err := os.Stat(filepath.Join(dir, rec.ID+".ckpt")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file not removed after done: %v", err)
	}
}

// readSSEStages consumes an SSE response body and returns the stage
// names in arrival order, until the predicate says stop or the stream
// closes.
func readSSEStages(body *bufio.Scanner, stop func(stage string) bool) []string {
	var stages []string
	for body.Scan() {
		line := body.Text()
		stage, ok := strings.CutPrefix(line, "event: ")
		if !ok {
			continue
		}
		stages = append(stages, stage)
		if stop != nil && stop(stage) {
			break
		}
	}
	return stages
}

// TestSSEStreamAcrossRestart drives the satellite end-to-end: a client
// watching a run's live SSE stream over real HTTP loses the connection
// when the daemon is killed mid-run, reconnects to the restarted
// daemon, and sees the full ordered timeline — including the retrying
// stage from before the crash and the resumed stage recovery appended.
//
// Not parallel: owns the flaky-trip gate.
func TestSSEStreamAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	noop := func(time.Duration) {}
	_, wantSHA := batchRender(t, "labd-t-flaky-ckpt", "text", nil)

	// Writes: record queued (1), running (2), retrying (3, transient
	// trip), checkpoint chunk (4), rendering (5), artifact (6) — killed.
	flakyTrip.Store(true)
	ctrl := chaos.New(scenarioSeed("sse-restart", 6, 1))
	ctrl.ArmAt(chaos.SiteWrite, 6, chaos.Crash)
	srv1, err := labd.Open(labd.Config{
		StoreDir: dir, Fleets: 1, Workers: 1,
		Chaos: ctrl, FS: chaos.BindFS(ctrl),
		Now: fakeClock(), Sleep: noop,
	})
	if err != nil {
		t.Fatal(err)
	}
	base1, shutdown1, err := daemon.Loopback(srv1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := srv1.Enqueue(labd.EnqueueRequest{Spec: "labd-t-flaky-ckpt"})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base1 + "/v1/runs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	live := readSSEStages(bufio.NewScanner(resp.Body), func(stage string) bool {
		return stage == string(labd.StatusRetrying)
	})
	if len(live) == 0 || live[len(live)-1] != string(labd.StatusRetrying) {
		t.Fatalf("live stream never delivered retrying: %v", live)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !ctrl.Killed() {
		if time.Now().After(deadline) {
			t.Fatal("kill-point never fired")
		}
		time.Sleep(time.Millisecond)
	}
	resp.Body.Close()
	if err := shutdown1(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv1.Close(ctx)
	cancel()

	// Reboot over the debris and reconnect: the replayed stream must
	// carry the whole timeline in order, then close after the terminal.
	srv2 := openServer(t, labd.Config{StoreDir: dir, Fleets: 1, Workers: 1, Sleep: noop})
	base2, shutdown2, err := daemon.Loopback(srv2)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown2()
	final := waitDone(t, srv2, rec.ID)
	if final.Status != labd.StatusDone || final.SHA256 != wantSHA {
		t.Fatalf("resumed run = %s sha %s (%q), want done with batch fingerprint %s",
			final.Status, final.SHA256, final.Error, wantSHA)
	}
	resp2, err := http.Get(base2 + "/v1/runs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replayed := readSSEStages(bufio.NewScanner(resp2.Body), nil)
	want := []string{"queued", "running", "retrying", "rendering", "resumed", "running", "rendering", "done"}
	if fmt.Sprint(replayed) != fmt.Sprint(want) {
		t.Fatalf("replayed timeline = %v, want %v", replayed, want)
	}
}

// TestStoreFailFaultsSurfaceCleanly covers the survivable (Fail) fault
// kinds: an injected ENOSPC or torn write makes the operation fail with
// a classifiable error, the daemon stays alive, the sequence number is
// consumed, and the next restart sweeps whatever debris the short
// write left behind.
func TestStoreFailFaultsSurfaceCleanly(t *testing.T) {
	t.Parallel()
	for _, site := range []string{chaos.SiteWrite, chaos.SiteWriteShort, chaos.SiteSync, chaos.SiteRename, chaos.SiteSyncDir} {
		site := site
		t.Run(site, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			ctrl := chaos.New(scenarioSeed(site, 1, 1))
			ctrl.ArmAt(site, 1, chaos.Fail)
			srv, err := labd.Open(labd.Config{
				StoreDir: dir, Fleets: 1, Workers: 1,
				Chaos: ctrl, FS: chaos.BindFS(ctrl),
				Now: fakeClock(), Sleep: func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
			if err == nil {
				t.Fatalf("enqueue through a failing %s succeeded", site)
			}
			if !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("fault not classifiable as injected: %v", err)
			}
			if (site == chaos.SiteWrite || site == chaos.SiteWriteShort) && !errors.Is(err, chaos.ErrNoSpace) {
				t.Fatalf("write fault not classified ENOSPC: %v", err)
			}
			if ctrl.Killed() {
				t.Fatal("a Fail fault latched the controller killed")
			}
			// The daemon survives and the next enqueue works — on a fresh
			// sequence number; the failed one is burned, never reissued.
			rec, err := srv.Enqueue(labd.EnqueueRequest{Spec: "labd-t-ok"})
			if err != nil {
				t.Fatal(err)
			}
			if rec.ID != "run-000002" {
				t.Fatalf("post-fault enqueue got %s, want run-000002 (seq 1 burned)", rec.ID)
			}
			if waitDone(t, srv, rec.ID).Status != labd.StatusDone {
				t.Fatal("post-fault run did not finish")
			}
			closeServer(t, srv)

			// A restart over the debris sweeps any torn .tmp and serves
			// the surviving run.
			srv2 := openServer(t, labd.Config{StoreDir: dir})
			if got, ok := srv2.Get(rec.ID); !ok || got.Status != labd.StatusDone {
				t.Fatalf("surviving run lost after restart: %+v", got)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("torn-write debris %s not swept on restart", e.Name())
				}
			}
		})
	}
}
