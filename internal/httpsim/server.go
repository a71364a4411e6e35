package httpsim

import (
	"errors"
	"fmt"

	"masterparasite/internal/netsim"
	"masterparasite/internal/tcpsim"
)

// HandlerFunc produces the response for a request. Returning nil yields a
// 500.
type HandlerFunc func(*Request) *Response

// Server serves HTTP over a tcpsim stack, one request per connection.
type Server struct {
	stack   *tcpsim.Stack
	handler HandlerFunc
	sealer  Sealer // nil for plaintext HTTP
	out     []byte // marshal scratch, reused across responses

	requests int
}

// NewServer starts a plaintext listener on port. The handler runs inside
// the netsim event loop.
func NewServer(stack *tcpsim.Stack, port uint16, handler HandlerFunc) (*Server, error) {
	return newServer(stack, port, nil, handler)
}

// NewServerSealed starts a sealed (HTTPS stand-in) listener: requests must
// open with the sealer's key and responses are sealed. An eavesdropper on
// the path sees only ciphertext.
func NewServerSealed(stack *tcpsim.Stack, port uint16, sealer Sealer, handler HandlerFunc) (*Server, error) {
	return newServer(stack, port, sealer, handler)
}

func newServer(stack *tcpsim.Stack, port uint16, sealer Sealer, handler HandlerFunc) (*Server, error) {
	s := &Server{stack: stack, handler: handler, sealer: sealer}
	err := stack.Listen(port, func(conn *tcpsim.Conn) {
		if s.sealer != nil {
			var buf []byte
			done := false
			conn.OnData(func(b []byte) {
				if done {
					return
				}
				buf = append(buf, b...)
				plaintext, _, oerr := s.sealer.Open(buf)
				if oerr != nil {
					return // incomplete, or a forgery that cannot be opened
				}
				if req, _, perr := ParseRequest(plaintext); perr == nil {
					done = true
					s.respond(conn, req)
				}
			})
			return
		}
		rx := receiver[*Request]{parseHead: parseRequestHead}
		conn.OnData(func(b []byte) {
			if req, ok := rx.feed(b); ok {
				s.respond(conn, req)
			}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("httpsim server: %w", err)
	}
	return s, nil
}

// respond runs the handler on a complete request, writes the response
// and closes the connection. The plaintext response is marshalled into
// the server's reused scratch: Conn.Write lets callers reuse their
// buffer once it returns.
func (s *Server) respond(conn *tcpsim.Conn, req *Request) {
	s.requests++
	resp := s.handler(req)
	if resp == nil {
		resp = NewResponse(500, []byte("internal error"))
	}
	s.out = resp.AppendMarshal(s.out[:0])
	out := s.out
	if s.sealer != nil {
		out = s.sealer.Seal(out)
	}
	if _, werr := conn.Write(out); werr != nil {
		return
	}
	_ = conn.Close()
}

// Requests reports how many requests the server has handled.
func (s *Server) Requests() int { return s.requests }

// Client issues HTTP requests over a tcpsim stack. Completion is
// callback-based because the whole simulation runs inside one event loop.
type Client struct {
	stack *tcpsim.Stack
}

// NewClient wraps a stack.
func NewClient(stack *tcpsim.Stack) *Client { return &Client{stack: stack} }

// Do sends req to dst:port and invokes cb with the parsed response. The
// response delivered may be the genuine server's or an injected one —
// the client cannot tell, which is the vulnerability.
func (c *Client) Do(dst netsim.Addr, port uint16, req *Request, cb func(*Response, error)) {
	c.do(dst, port, nil, req, cb)
}

// DoSealed sends a sealed (HTTPS stand-in) request. Injected plaintext or
// wrong-key forgeries never reach the parser: the seal layer discards
// them, which is why HTTPS defeats the injection (§V Discussion).
func (c *Client) DoSealed(dst netsim.Addr, port uint16, sealer Sealer, req *Request, cb func(*Response, error)) {
	c.do(dst, port, sealer, req, cb)
}

func (c *Client) do(dst netsim.Addr, port uint16, sealer Sealer, req *Request, cb func(*Response, error)) {
	done := false
	_, err := c.stack.Dial(dst, port, func(conn *tcpsim.Conn) {
		if sealer != nil {
			var buf []byte
			conn.OnData(func(b []byte) {
				if done {
					return
				}
				buf = append(buf, b...)
				plaintext, _, oerr := sealer.Open(buf)
				if errors.Is(oerr, ErrSealIncomplete) {
					return
				}
				if oerr != nil {
					// Forged or corrupted record: the secure channel is
					// poisoned and the exchange aborts — the injected
					// payload never reaches the HTTP layer.
					done = true
					cb(nil, fmt.Errorf("httpsim client: %w", oerr))
					return
				}
				if resp, _, perr := ParseResponse(plaintext); perr == nil {
					done = true
					cb(resp, nil)
				}
			})
		} else {
			rx := receiver[*Response]{parseHead: parseResponseHead}
			conn.OnData(func(b []byte) {
				if resp, ok := rx.feed(b); ok && !done {
					done = true
					cb(resp, nil)
				}
			})
		}
		out := req.Marshal()
		if sealer != nil {
			out = sealer.Seal(out)
		}
		if _, werr := conn.Write(out); werr != nil && !done {
			done = true
			cb(nil, fmt.Errorf("httpsim client write: %w", werr))
		}
	})
	if err != nil {
		cb(nil, fmt.Errorf("httpsim client dial: %w", err))
	}
}

// Get is a convenience for a GET request.
func (c *Client) Get(dst netsim.Addr, port uint16, host, path string, cb func(*Response, error)) {
	c.Do(dst, port, NewRequest("GET", host, path), cb)
}
