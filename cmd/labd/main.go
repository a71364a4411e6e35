// Command labd is the attack-lab orchestrator daemon: the long-lived
// serving layer over the artifact registry (see internal/labd). It
// exposes the run API over real net/http, drains a FIFO queue through a
// bounded set of scenario fleets, persists durable run records under
// -store, streams per-run progress as SSE, and shuts down gracefully on
// SIGINT/SIGTERM — in-flight runs finish, queued runs stay durably
// queued for the next process.
//
//	labd -listen 127.0.0.1:8970 -store labd-data -fleets 2
//	curl -s localhost:8970/v1/specs
//	curl -s -X POST localhost:8970/v1/runs -d '{"spec":"flows","format":"json"}'
//	curl -s localhost:8970/v1/runs/run-000001/events   # SSE progress
//	curl -s localhost:8970/v1/runs/run-000001/artifact
//
// -smoke runs the CI gate instead of serving: start a daemon on an
// ephemeral loopback port, enqueue one artifact over real HTTP, poll it
// to completion, and assert the served SHA-256 fingerprint equals the
// batch CLI's manifest entry for the same spec, params, and format.
//
// -chaos <seed> serves with deterministic storage chaos armed: every
// store.* fault site (internal/chaos) fails on a seeded recurring
// schedule, so operators can rehearse how clients and the recovery
// path behave under ENOSPC, torn writes, failed renames, and fsync
// errors. The daemon must survive everything -chaos injects; the same
// seed replays the same fault schedule.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/chaos"
	"masterparasite/internal/daemon"
	_ "masterparasite/internal/experiments" // self-registers the paper's artifacts
	"masterparasite/internal/labd"
	"masterparasite/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("labd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8970", "listen address")
	storeDir := fs.String("store", "labd-data", "durable run-record directory")
	fleets := fs.Int("fleets", 2, "concurrent run fleets draining the queue")
	workers := fs.Int("workers", 0, "per-run scenario pool width (0 = GOMAXPROCS)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown deadline")
	smoke := fs.Bool("smoke", false, "run the serving smoke gate and exit")
	smokeSpec := fs.String("spec", "flows", "artifact to enqueue in -smoke mode")
	smokeFormat := fs.String("format", "json", "render format in -smoke mode")
	chaosSeed := fs.Int64("chaos", 0, "arm recurring storage faults from this seed (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaosSeed < 0 {
		return fmt.Errorf("chaos seed must be positive, got %d", *chaosSeed)
	}
	if *chaosSeed != 0 && *smoke {
		return fmt.Errorf("-chaos and -smoke are mutually exclusive: the smoke gate asserts byte-identity, chaos injects faults")
	}

	if *smoke {
		dir, err := os.MkdirTemp("", "labd-smoke-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		return runSmoke(dir, *smokeSpec, *smokeFormat, *workers, stdout)
	}

	// Catch SIGINT/SIGTERM before opening the store and listening, so a
	// signal that lands during start-up drains the daemon instead of
	// killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := labd.Config{StoreDir: *storeDir, Fleets: *fleets, Workers: *workers}
	if *chaosSeed != 0 {
		ctrl := chaos.New(*chaosSeed)
		ctrl.ArmStoreFaults()
		cfg.Chaos = ctrl
		cfg.FS = chaos.BindFS(ctrl)
	}
	srv, err := labd.Open(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	if *chaosSeed != 0 {
		fmt.Fprintf(stdout, "labd chaos armed: recurring store.* faults, seed %d\n", *chaosSeed)
	}
	fmt.Fprintf(stdout, "labd listening on http://%s (store %s, %d fleets)\n", ln.Addr(), *storeDir, *fleets)
	fmt.Fprintln(stdout, "routes: /healthz /readyz /v1/specs /v1/runs /v1/runs/{id}{,/artifact,/events}")
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: daemon.ReadHeaderTimeout}
	return daemon.Serve(ctx, httpSrv, ln, *drain, srv.Close)
}

// runSmoke is the end-to-end serving gate: daemon on a loopback port,
// one artifact enqueued over real net/http, polled to completion, and
// its fingerprint checked against the batch CLI's manifest entry.
func runSmoke(storeDir, specID, format string, workers int, stdout io.Writer) error {
	spec, ok := artifact.Get(specID)
	if !ok {
		return fmt.Errorf("smoke: unknown spec %q (known: %s)", specID, strings.Join(artifact.IDs(), " "))
	}

	srv, err := labd.Open(labd.Config{StoreDir: storeDir, Fleets: 1, Workers: workers})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()
	base, shutdown, err := daemon.Loopback(srv)
	if err != nil {
		return err
	}
	defer func() { _ = shutdown() }()
	fmt.Fprintf(stdout, "smoke: daemon on %s, enqueueing %s (%s)\n", base, specID, format)

	enqBody := fmt.Sprintf(`{"spec":%q,"format":%q}`, specID, format)
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(enqBody))
	if err != nil {
		return fmt.Errorf("smoke enqueue: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("smoke enqueue: %d %s", resp.StatusCode, body)
	}
	var rec labd.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return fmt.Errorf("smoke enqueue decode: %w", err)
	}

	final, err := pollRun(base, rec.ID, 2*time.Minute)
	if err != nil {
		return err
	}
	if final.Status != labd.StatusDone {
		return fmt.Errorf("smoke run %s ended %s: %s", rec.ID, final.Status, final.Error)
	}

	art, err := http.Get(base + "/v1/runs/" + rec.ID + "/artifact")
	if err != nil {
		return fmt.Errorf("smoke artifact: %w", err)
	}
	served, _ := io.ReadAll(art.Body)
	art.Body.Close()

	// The batch side: exactly the cmd/experiments code path, fingerprinted
	// through the same manifest the CI artifacts carry.
	renderer, err := artifact.RendererFor(format)
	if err != nil {
		return err
	}
	res, rendered, err := artifact.RunRendered(spec, runner.New(1), final.Params, renderer)
	if err != nil {
		return fmt.Errorf("smoke batch render: %w", err)
	}
	manifest := artifact.NewManifest(format, 1)
	manifest.Add(spec, res, rendered)
	want := manifest.Artifacts[0].SHA256

	if !bytes.Equal(served, rendered) {
		return fmt.Errorf("smoke: served artifact (%d bytes) diverges from batch render (%d bytes)", len(served), len(rendered))
	}
	if final.SHA256 != want {
		return fmt.Errorf("smoke: served fingerprint %s != batch manifest %s", final.SHA256, want)
	}
	fmt.Fprintf(stdout, "smoke: PASS %s %s sha256=%s (%d bytes, %d stages)\n",
		rec.ID, specID, final.SHA256, final.Bytes, len(final.Stages))
	return nil
}

// pollRun GETs the run record until it reaches a terminal status.
func pollRun(base, id string, timeout time.Duration) (*labd.Record, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			return nil, fmt.Errorf("smoke poll: %w", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var rec labd.Record
		if err := json.Unmarshal(body, &rec); err != nil {
			return nil, fmt.Errorf("smoke poll decode: %w (%s)", err, body)
		}
		if rec.Status.Terminal() {
			return &rec, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("smoke poll: run %s still %s after %s", id, rec.Status, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
