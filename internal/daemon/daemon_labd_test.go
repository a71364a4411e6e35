package daemon_test

import (
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/daemon"
	"masterparasite/internal/labd"
)

// The drain-with-work test needs a run the fleet is actively executing
// when the drain starts, so it registers a gated spec plus a fast one.

type drainDataset []struct {
	Name string `json:"name"`
}

func (d drainDataset) Table() (header []string, rows [][]string) {
	header = []string{"name"}
	for _, r := range d {
		rows = append(rows, []string{r.Name})
	}
	return header, rows
}

var (
	drainGateMu sync.Mutex
	drainGate   = make(chan struct{})
)

func armDrainGate() (release func()) {
	drainGateMu.Lock()
	defer drainGateMu.Unlock()
	ch := make(chan struct{})
	drainGate = ch
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func init() {
	artifact.MustRegister(artifact.Spec{
		ID: "daemon-t-block", Title: "daemon drain blocking artifact", Section: "test",
		Run: func(artifact.Env) (*artifact.Result, error) {
			drainGateMu.Lock()
			ch := drainGate
			drainGateMu.Unlock()
			<-ch
			return &artifact.Result{Text: "released\n", Dataset: drainDataset{}}, nil
		},
	})
	artifact.MustRegister(artifact.Spec{
		ID: "daemon-t-ok", Title: "daemon drain fast artifact", Section: "test",
		Run: func(artifact.Env) (*artifact.Result, error) {
			return &artifact.Result{Text: "ok\n", Dataset: drainDataset{}}, nil
		},
	})
}

// TestServeDrainsInFlightLabdRun is the full-stack drain scenario: a
// labd daemon with one fleet has a run mid-execution and a second run
// queued behind it when the daemon is told to stop. The drain must let the
// in-flight run finish and persist done, leave the queued run durably
// queued (the closed queue hands out no new work), and a restarted
// daemon on the same store must pick the queued run back up and
// complete it.
func TestServeDrainsInFlightLabdRun(t *testing.T) {
	store := t.TempDir()
	release := armDrainGate()
	defer release()
	lab, err := labd.Open(labd.Config{StoreDir: store, Fleets: 1})
	if err != nil {
		t.Fatal(err)
	}

	blockRec, err := lab.Enqueue(labd.EnqueueRequest{Spec: "daemon-t-block"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single fleet owns the blocking run, so the second
	// enqueue is guaranteed to sit in the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, _ := lab.Get(blockRec.ID)
		if rec.Status == labd.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocking run never started: %s", rec.Status)
		}
		time.Sleep(time.Millisecond)
	}
	queuedRec, err := lab.Enqueue(labd.EnqueueRequest{Spec: "daemon-t-ok"})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: lab}
	stop, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- daemon.Serve(stop, srv, ln, 15*time.Second, func(ctx context.Context) error {
			// The fleet is parked on the gate; open it mid-drain so the
			// hook exercises "wait for the in-flight run, then exit".
			go func() {
				time.Sleep(50 * time.Millisecond)
				release()
			}()
			return lab.Close(ctx)
		})
	}()

	// Confirm the daemon is serving before telling it to stop.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after draining with work in flight", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Serve did not return after its context ended with an in-flight run")
	}

	// The in-flight run finished and persisted; the queued one never ran.
	if rec, _ := lab.Get(blockRec.ID); rec.Status != labd.StatusDone {
		t.Fatalf("in-flight run = %s (error %q), want done", rec.Status, rec.Error)
	}
	if rec, _ := lab.Get(queuedRec.ID); rec.Status != labd.StatusQueued {
		t.Fatalf("queued run = %s, want still queued after drain", rec.Status)
	}

	// Restart on the same store: the queued run is re-enqueued and
	// completes; the finished run keeps its durable done record.
	lab2, err := labd.Open(labd.Config{StoreDir: store, Fleets: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = lab2.Close(ctx)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec, err := lab2.Wait(ctx, queuedRec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != labd.StatusDone {
		t.Fatalf("restarted queued run = %s (error %q), want done", rec.Status, rec.Error)
	}
	if rec2, ok := lab2.Get(blockRec.ID); !ok || rec2.Status != labd.StatusDone {
		t.Fatalf("finished run lost across restart: %+v", rec2)
	}
}
