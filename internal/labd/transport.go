package labd

import (
	"io"
	"net/http"
	"strings"

	"masterparasite/internal/httpsim"
)

// This file holds the three transport bindings over the one Route
// dispatch, mirroring how cnc.MasterServer.Route is shared by its
// ServeHTTP and the simulation's CNCAdapter:
//
//	Client    — in-process, zero sockets (unit tests, embedding)
//	Adapter   — httpsim handler (the packet simulation)
//	ServeHTTP — real net/http (cmd/labd), with live SSE streaming
//
// All three produce byte-identical (status, content type, body)
// triples for the same request sequence; the tri-transport test locks
// that equivalence.

// Response is one API response as a transport-independent triple.
type Response struct {
	Status      int
	ContentType string
	Body        []byte
}

// Client calls the API in-process: the same Route dispatch the remote
// transports use, without any socket or serialization between.
type Client struct {
	srv *Server
}

// NewClient wraps a server.
func NewClient(srv *Server) *Client { return &Client{srv: srv} }

// Do dispatches one request and returns the response triple. The body
// is freshly allocated per call, so callers may retain it.
func (c *Client) Do(method, path string, body []byte) Response {
	status, ctype, respBody := c.srv.Route(method, path, body, nil)
	return Response{Status: status, ContentType: ctype, Body: respBody}
}

// Adapter serves the API over httpsim, so an orchestrator can ride the
// packet simulation end-to-end — enqueue requests and progress polls
// crossing simulated segments as real HTTP/1.1 bytes.
func Adapter(srv *Server) httpsim.HandlerFunc {
	return func(req *httpsim.Request) *httpsim.Response {
		status, ctype, body := srv.Route(req.Method, req.PathOnly(), req.Body, nil)
		out := httpsim.NewResponse(status, body)
		SetResponseHeaders(status, ctype, out.Header.Set)
		return out
	}
}

var _ http.Handler = (*Server)(nil)

// ServeHTTP serves the API over real net/http. Every route goes
// through the same Route dispatch as the other transports; the events
// route alone is upgraded from snapshot to live stream — events are
// written and flushed as the run progresses and the response ends
// after the terminal event, at which point the total bytes sent equal
// the Route snapshot of the finished run exactly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id, ok := eventsRunID(r.URL.Path); ok && r.Method == http.MethodGet {
		s.serveEventStream(w, r, id)
		return
	}
	var body []byte
	if r.Body != nil {
		body, _ = io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if len(body) > maxBodyBytes {
			status, ctype, resp := errBody(nil, http.StatusRequestEntityTooLarge, "request body too large")
			writeResponse(w, status, ctype, resp)
			return
		}
	}
	status, ctype, resp := s.Route(r.Method, r.URL.Path, body, nil)
	writeResponse(w, status, ctype, resp)
}

// maxBodyBytes bounds an API request body; enqueue requests are tiny.
const maxBodyBytes = 1 << 20

func writeResponse(w http.ResponseWriter, status int, ctype string, body []byte) {
	SetResponseHeaders(status, ctype, w.Header().Set)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// eventsRunID recognises /v1/runs/{id}/events paths.
func eventsRunID(path string) (string, bool) {
	p := strings.Trim(path, "/")
	rest, ok := strings.CutPrefix(p, "v1/runs/")
	if !ok {
		return "", false
	}
	id, ok := strings.CutSuffix(rest, "/events")
	if !ok || id == "" || strings.ContainsRune(id, '/') {
		return "", false
	}
	return id, true
}

// serveEventStream streams a run's progress as live SSE: recorded
// stages replay immediately, later transitions arrive as they happen,
// and the stream closes after the terminal event (or when the client
// disconnects).
func (s *Server) serveEventStream(w http.ResponseWriter, r *http.Request, id string) {
	ch, ok := s.Subscribe(id)
	if !ok {
		status, ctype, resp := errBody(nil, http.StatusNotFound, "unknown run "+id)
		writeResponse(w, status, ctype, resp)
		return
	}
	SetResponseHeaders(http.StatusOK, sseContentType, w.Header().Set)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var scratch []byte
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			scratch = AppendSSE(scratch[:0], ev)
			if _, err := w.Write(scratch); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
