package daemon

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

func pongServer() *http.Server {
	return &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("pong"))
	})}
}

func getPong(t *testing.T, addr string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" {
		t.Fatalf("body = %q", body)
	}
}

// TestServeDrainsOnCancel exercises the full lifecycle in-process: the
// server answers a request, the test cancels Serve's context, and Serve
// returns nil after http.Server.Shutdown and the drain hook have both
// run.
func TestServeDrainsOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hookRan := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, pongServer(), ln, 5*time.Second, func(ctx context.Context) error {
			if ctx.Err() != nil {
				t.Error("drain hook received an already-expired context")
			}
			close(hookRan)
			return nil
		})
	}()

	getPong(t, ln.Addr().String())
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its context was cancelled")
	}
	select {
	case <-hookRan:
	default:
		t.Fatal("drain hook never ran")
	}

	// The listener must be closed: new connections are refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// sigtermChildEnv marks the re-executed test binary that plays the
// daemon in TestServeDrainsOnSIGTERM.
const sigtermChildEnv = "DAEMON_SIGTERM_CHILD"

// TestServeDrainsOnSIGTERM covers the real-signal path in a child
// process, wired the way cmd/labd and cmd/master wire it: the signal
// context exists before the listener, so a SIGTERM that lands as soon
// as the address is known drains the server instead of killing the
// process.
func TestServeDrainsOnSIGTERM(t *testing.T) {
	if os.Getenv(sigtermChildEnv) == "1" {
		serveUntilSignal()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeDrainsOnSIGTERM$")
	cmd.Env = append(os.Environ(), sigtermChildEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }()
	lines := bufio.NewReader(stdout)
	first, err := lines.ReadString('\n')
	if err != nil {
		t.Fatalf("child printed no address: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(first), "listening ")
	if !ok {
		t.Fatalf("child's first line = %q", first)
	}
	getPong(t, addr)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(lines)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child did not drain on SIGTERM: %v\n%s", err, rest)
	}
	if !strings.Contains(string(rest), "drained") {
		t.Fatalf("child exited without running the drain hook:\n%s", rest)
	}
}

// serveUntilSignal is the child side of TestServeDrainsOnSIGTERM.
func serveUntilSignal() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("listen:", err)
		os.Exit(1)
	}
	fmt.Printf("listening %s\n", ln.Addr())
	err = Serve(ctx, pongServer(), ln, 5*time.Second, func(context.Context) error {
		fmt.Println("drained")
		return nil
	})
	if err != nil {
		fmt.Println("serve:", err)
		os.Exit(1)
	}
}

// TestServeReturnsServerError asserts a server that fails on its own
// (closed listener) surfaces the error without its context ending.
func TestServeReturnsServerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	srv := &http.Server{Handler: http.NotFoundHandler()}
	errc := make(chan error, 1)
	go func() { errc <- Serve(context.Background(), srv, ln, time.Second) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Serve returned nil on a dead listener")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve hung on a dead listener")
	}
}
