package httpsim

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"masterparasite/internal/netsim"
	"masterparasite/internal/tcpsim"
)

// receiveCases are wire messages for the incremental receivers: well
// formed ones, with and without a body and with bytes after the
// message, and heads a one-shot parse rejects or never completes.
var receiveCases = []struct {
	name     string
	request  bool
	wire     string
	complete bool // a one-shot parse of the whole wire succeeds
}{
	{"request", true, "POST /up?x=1 HTTP/1.1\r\nHost: m.example\r\nContent-Length: 5\r\nX-A: b\r\n\r\nhello", true},
	{"request-no-body", true, "GET / HTTP/1.1\r\nHost: a.example\r\n\r\n", true},
	{"request-trailing-bytes", true, "GET /p HTTP/1.1\r\nHost: a.example\r\n\r\nGET /q HTTP/1.1\r\n\r\n", true},
	{"response", false, "HTTP/1.1 200 OK\r\nContent-Type: image/svg+xml\r\nContent-Length: 12\r\n\r\n<svg></svg>\n", true},
	{"response-empty-body", false, "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n", true},
	{"response-trailing-bytes", false, "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 200 OK\r\n", true},
	{"response-no-status-text", false, "HTTP/1.1 204\r\n\r\n", true},
	// Two differing Content-Length headers: the parser keeps the last.
	{"duplicate-content-length", false, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 6\r\n\r\nabcdef", true},
	{"duplicate-content-length-short", false, "HTTP/1.1 200 OK\r\nContent-Length: 6\r\nContent-Length: 2\r\n\r\nabcdef", true},
	{"malformed-content-length", false, "HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\nabcdef", false},
	{"negative-content-length", true, "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", false},
	{"malformed-status-line", false, "HTTP/1.1\r\nContent-Length: 1\r\n\r\na", false},
	{"malformed-request-line", true, "GET /\r\nHost: a\r\n\r\n", false},
	{"malformed-header-line", true, "GET / HTTP/1.1\r\nno colon here\r\n\r\n", false},
	// A well-formed message after a malformed head: a one-shot parse
	// keeps failing on the first head, so nothing may be yielded.
	{"malformed-then-valid", true, "GET /\r\n\r\nGET / HTTP/1.1\r\nHost: a\r\n\r\n", false},
	// A declared length far beyond what arrives never completes, and
	// must neither overflow the length arithmetic nor reserve it all.
	{"huge-content-length", false, "HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\nabc", false},
}

// oneShot parses data the way a caller re-parsing its whole buffer
// would, returning nil until a message is complete.
func oneShot(request bool, data []byte) any {
	if request {
		if m, _, err := ParseRequest(data); err == nil {
			return m
		}
		return nil
	}
	if m, _, err := ParseResponse(data); err == nil {
		return m
	}
	return nil
}

// feeder returns the feed function of a fresh receiver for the case.
func feeder(request bool) func([]byte) any {
	if request {
		rx := receiver[*Request]{parseHead: parseRequestHead}
		return func(b []byte) any {
			if m, ok := rx.feed(b); ok {
				return m
			}
			return nil
		}
	}
	rx := receiver[*Response]{parseHead: parseResponseHead}
	return func(b []byte) any {
		if m, ok := rx.feed(b); ok {
			return m
		}
		return nil
	}
}

// checkDelivery feeds the wire to a receiver in the given chunks and
// requires it to yield, on the same chunk where a one-shot parse of the
// bytes so far first succeeds, a message equal to that parse's — and
// nothing before or after.
func checkDelivery(t *testing.T, request bool, wire []byte, cuts []int) {
	t.Helper()
	feed := feeder(request)
	yielded := false
	prev := 0
	for _, cut := range append(cuts, len(wire)) {
		got := feed(wire[prev:cut])
		want := oneShot(request, wire[:cut])
		if yielded {
			want = nil // the message was already delivered
		}
		if (got == nil) != (want == nil) || got != nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("cuts %v, through byte %d: receiver yielded %+v, one-shot parse %+v", cuts, cut, got, want)
		}
		yielded = yielded || got != nil
		prev = cut
	}
}

// TestReceiverMatchesOneShotParse delivers each case split at every
// byte boundary (so the head is split inside its blank line too) and
// one byte at a time: the receiver must yield what ParseRequest or
// ParseResponse yields on the same byte, or nothing when they fail.
func TestReceiverMatchesOneShotParse(t *testing.T) {
	for _, tc := range receiveCases {
		t.Run(tc.name, func(t *testing.T) {
			wire := []byte(tc.wire)
			if got := oneShot(tc.request, wire) != nil; got != tc.complete {
				t.Fatalf("one-shot parse complete = %v, want %v", got, tc.complete)
			}
			for k := 1; k < len(wire); k++ {
				checkDelivery(t, tc.request, wire, []int{k})
			}
			bytewise := make([]int, len(wire)-1)
			for i := range bytewise {
				bytewise[i] = i + 1
			}
			checkDelivery(t, tc.request, wire, bytewise)
		})
	}
}

// TestReceiverHugeContentLengthReservesLittle pins that a head
// declaring an enormous body reserves at most maxReserve bytes.
func TestReceiverHugeContentLengthReservesLittle(t *testing.T) {
	rx := receiver[*Response]{parseHead: parseResponseHead}
	if _, ok := rx.feed([]byte("HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\nabc")); ok {
		t.Fatal("incomplete message yielded")
	}
	if cap(rx.buf) > 2*maxReserve {
		t.Fatalf("reserved %d bytes for a hostile Content-Length, want <= %d", cap(rx.buf), 2*maxReserve)
	}
	if _, _, err := ParseResponse(rx.buf); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("ParseResponse = %v, want ErrIncomplete", err)
	}
}

// TestTinySegmentsEndToEnd runs a real exchange with a 3-byte MSS, so
// every head arrives split inside its blank line and every body three
// bytes at a time, on both the request and the response side.
func TestTinySegmentsEndToEnd(t *testing.T) {
	n := netsim.New()
	seg := n.MustSegment("lan", time.Millisecond)
	cli := tcpsim.NewStack(n, seg.MustAttach("client", 0, nil), tcpsim.WithSeed(1), tcpsim.WithMSS(3))
	srv := tcpsim.NewStack(n, seg.MustAttach("server", 0, nil), tcpsim.WithSeed(2), tcpsim.WithMSS(3))
	body := []byte(strings.Repeat("payload-", 40))
	var gotReq *Request
	if _, err := NewServer(srv, 80, func(r *Request) *Response {
		gotReq = r
		resp := NewResponse(200, body)
		resp.Header.Set("Content-Type", "text/plain")
		return resp
	}); err != nil {
		t.Fatal(err)
	}
	req := NewRequest("POST", "server.example", "/submit")
	req.Body = []byte("form=1")
	var gotResp *Response
	NewClient(cli).Do("server", 80, req, func(r *Response, err error) {
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		gotResp = r
	})
	n.Run(0)
	if gotReq == nil || string(gotReq.Body) != "form=1" || gotReq.Host != "server.example" {
		t.Fatalf("server got %+v", gotReq)
	}
	if gotResp == nil || !bytes.Equal(gotResp.Body, body) || gotResp.Header.Get("Content-Type") != "text/plain" {
		t.Fatalf("client got %+v", gotResp)
	}
}
