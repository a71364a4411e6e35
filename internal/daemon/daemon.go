// Package daemon holds the shared lifecycle helpers for the repo's
// long-lived HTTP servers (cmd/labd, cmd/master, and the loopback
// servers tests and benchmarks start): serve until a context is done,
// then drain gracefully — stop accepting connections, let in-flight
// requests finish via http.Server.Shutdown, and run any subsystem drain
// hooks (labd's queue/fleet drain) under the same deadline.
//
// The commands bind that context to SIGINT/SIGTERM with
// signal.NotifyContext before they listen, so a signal that arrives
// while the server is still starting drains it instead of killing the
// process with Go's default signal action.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// ReadHeaderTimeout bounds how long a client may take to send its
// request headers. Loopback sets it, and so do cmd/labd and cmd/master
// on the servers they hand to Serve.
const ReadHeaderTimeout = 5 * time.Second

// Serve runs srv on ln until ctx is done (or the server fails on its
// own), then shuts down gracefully within drainTimeout and runs the
// hooks in order under the same deadline. The first error wins; a
// clean shutdown after ctx is done returns nil.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, drainTimeout time.Duration, hooks ...func(context.Context) error) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// The server failed before it was told to stop; nothing left
		// to drain.
		return err
	case <-ctx.Done():
	}

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	for _, hook := range hooks {
		if herr := hook(dctx); herr != nil && err == nil {
			err = herr
		}
	}
	return err
}

// Loopback serves h on an ephemeral 127.0.0.1 port and returns its base
// URL and a shutdown function that closes the server and waits for its
// serve loop to return.
func Loopback(h http.Handler) (baseURL string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("loopback listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	shutdown = func() error {
		err := srv.Close()
		<-done
		return err
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
