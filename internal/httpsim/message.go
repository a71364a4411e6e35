// Package httpsim implements a small HTTP/1.1 layer over the tcpsim
// transport. Requests and responses use the standard textual wire format,
// so bytes crafted by the attacker (spoofed server responses, §V) are
// indistinguishable on the wire from genuine ones — which is the point of
// the attack.
//
// The layer is deliberately one-request-per-connection (Connection:
// close semantics): the experiments need many independent request/response
// races, not connection reuse.
package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"net/textproto"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Header is a single-valued header map with canonicalised keys.
type Header map[string]string

// Set stores value under the canonical form of key.
func (h Header) Set(key, value string) {
	h[textproto.CanonicalMIMEHeaderKey(key)] = value
}

// Get returns the value for key ("" when absent).
func (h Header) Get(key string) string {
	return h[textproto.CanonicalMIMEHeaderKey(key)]
}

// Has reports whether key is present.
func (h Header) Has(key string) bool {
	_, ok := h[textproto.CanonicalMIMEHeaderKey(key)]
	return ok
}

// Del removes key.
func (h Header) Del(key string) {
	delete(h, textproto.CanonicalMIMEHeaderKey(key))
}

// Clone returns an independent copy.
func (h Header) Clone() Header {
	out := make(Header, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// keysSorted returns keys in deterministic order for marshalling.
func (h Header) keysSorted() []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Request is an HTTP request message.
type Request struct {
	Method string
	Path   string // path plus optional query string
	Host   string
	Header Header
	Body   []byte
}

// NewRequest builds a GET-style request with an empty header map.
func NewRequest(method, host, path string) *Request {
	return &Request{Method: method, Host: host, Path: path, Header: Header{}}
}

// URL returns the host-qualified URL (scheme-less), the cache key space
// used throughout the system.
func (r *Request) URL() string { return r.Host + r.Path }

// Query returns the value of a query parameter, or "".
func (r *Request) Query(key string) string {
	i := strings.IndexByte(r.Path, '?')
	if i < 0 {
		return ""
	}
	for _, kv := range strings.Split(r.Path[i+1:], "&") {
		k, v, _ := strings.Cut(kv, "=")
		if k == key {
			return v
		}
	}
	return ""
}

// PathOnly returns the path with any query string removed.
func (r *Request) PathOnly() string {
	if i := strings.IndexByte(r.Path, '?'); i >= 0 {
		return r.Path[:i]
	}
	return r.Path
}

// appendHeaderLine appends "k: v\r\n".
func appendHeaderLine(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, ": "...)
	b = append(b, v...)
	return append(b, '\r', '\n')
}

// Marshal encodes the request in HTTP/1.1 wire format. The message is
// assembled into one exact-size allocation (plus the sorted key
// scratch) — this sits under every simulated fetch.
func (r *Request) Marshal() []byte {
	hdr := r.Header
	keys := hdr.keysSorted()
	n := len(r.Method) + 1 + len(r.Path) + len(" HTTP/1.1\r\n") +
		len("Host: ") + len(r.Host) + 2
	for _, k := range keys {
		if k == "Host" || k == "Content-Length" {
			continue
		}
		n += len(k) + 2 + len(hdr[k]) + 2
	}
	if len(r.Body) > 0 {
		n += len("Content-Length: ") + intLen(len(r.Body)) + 2
	}
	n += 2 + len(r.Body)

	b := make([]byte, 0, n)
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Path...)
	b = append(b, " HTTP/1.1\r\n"...)
	b = appendHeaderLine(b, "Host", r.Host)
	for _, k := range keys {
		if k == "Host" || k == "Content-Length" {
			continue
		}
		b = appendHeaderLine(b, k, hdr[k])
	}
	if len(r.Body) > 0 {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(r.Body)), 10)
		b = append(b, '\r', '\n')
	}
	b = append(b, '\r', '\n')
	return append(b, r.Body...)
}

// Response is an HTTP response message.
type Response struct {
	StatusCode int
	Status     string
	Header     Header
	Body       []byte
}

// NewResponse builds a response with standard status text.
func NewResponse(code int, body []byte) *Response {
	return &Response{StatusCode: code, Status: statusText(code), Header: Header{}, Body: body}
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Unknown"
	}
}

// intLen returns the decimal digit count of a non-negative int.
func intLen(v int) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// Marshal encodes the response in HTTP/1.1 wire format with an explicit
// Content-Length — this is also the byte string the attacker injects.
// Like Request.Marshal, it assembles the message into one allocation
// sized up front.
func (r *Response) Marshal() []byte { return r.AppendMarshal(nil) }

// AppendMarshal appends the wire form Marshal returns to dst, growing
// it at most once, so a server marshalling into reused scratch
// allocates nothing once the scratch has grown.
func (r *Response) AppendMarshal(dst []byte) []byte {
	status := r.Status
	if status == "" {
		status = statusText(r.StatusCode)
	}
	hdr := r.Header
	keys := hdr.keysSorted()
	n := len("HTTP/1.1 ") + intLen(r.StatusCode) + 1 + len(status) + 2
	for _, k := range keys {
		if k == "Content-Length" {
			continue
		}
		n += len(k) + 2 + len(hdr[k]) + 2
	}
	n += len("Content-Length: ") + intLen(len(r.Body)) + 2 + 2 + len(r.Body)

	b := slices.Grow(dst, n)
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(r.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, '\r', '\n')
	for _, k := range keys {
		if k == "Content-Length" {
			continue
		}
		b = appendHeaderLine(b, k, hdr[k])
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(r.Body)), 10)
	b = append(b, '\r', '\n', '\r', '\n')
	return append(b, r.Body...)
}

// Errors returned by the parsers.
var (
	ErrIncomplete = errors.New("httpsim: incomplete message")
	ErrMalformed  = errors.New("httpsim: malformed message")
)

// malformedError is an ErrMalformed naming the offending field. Its
// text is only formatted when asked for: a tap that tries every
// segment it sees as a request fails on most of them and reads none of
// the errors.
type malformedError struct{ what, text string }

func (e *malformedError) Error() string {
	return fmt.Sprintf("%v: %s %q", ErrMalformed, e.what, e.text)
}

func (e *malformedError) Unwrap() error { return ErrMalformed }

// splitStartLine splits a start line at its first two spaces into n
// parts, as strings.SplitN(line, " ", 3) does, without allocating.
func splitStartLine(line string) (parts [3]string, n int) {
	for n < 2 {
		i := strings.IndexByte(line, ' ')
		if i < 0 {
			break
		}
		parts[n], line = line[:i], line[i+1:]
		n++
	}
	parts[n] = line
	return parts, n + 1
}

// crlf2 is the blank line ending a message head.
var crlf2 = []byte("\r\n\r\n")

// splitHead returns the header block and the byte offset of the body, or
// ErrIncomplete when the blank line has not arrived yet.
func splitHead(data []byte) (head []byte, bodyOff int, err error) {
	i := bytes.Index(data, crlf2)
	if i < 0 {
		return nil, 0, ErrIncomplete
	}
	return data[:i], i + 4, nil
}

// parseHead converts the header block into one string (the only parse
// allocation besides the header map itself — every line, key, and value
// is a substring of it) and splits off the start line.
func parseHead(head []byte) (startLine, rest string) {
	s := string(head)
	if i := strings.Index(s, "\r\n"); i >= 0 {
		return s[:i], s[i+2:]
	}
	return s, ""
}

// parseHeaders decodes "Key: value\r\n" lines from the header block,
// walking line by line instead of materialising a []string split.
func parseHeaders(s string) (Header, error) {
	h := make(Header, 8)
	for len(s) > 0 {
		ln := s
		if i := strings.Index(s, "\r\n"); i >= 0 {
			ln, s = s[:i], s[i+2:]
		} else {
			s = ""
		}
		if ln == "" {
			continue
		}
		k, v, ok := strings.Cut(ln, ":")
		if !ok {
			return nil, &malformedError{"header line", ln}
		}
		h.Set(strings.TrimSpace(k), strings.TrimSpace(v))
	}
	return h, nil
}

// contentLength reads and validates the Content-Length header (0 when
// absent).
func contentLength(hdr Header) (int, error) {
	v := hdr.Get("Content-Length")
	if v == "" {
		return 0, nil
	}
	clen, err := strconv.Atoi(v)
	if err != nil || clen < 0 {
		return 0, &malformedError{"content-length", v}
	}
	return clen, nil
}

// ParseRequest decodes one request from data, returning the message and
// the number of bytes consumed. It returns ErrIncomplete until a full
// message is buffered. The returned Body aliases data — callers that
// mutate or recycle the wire buffer must copy it first (the simulated
// stacks never do: wire buffers are written once per message).
func ParseRequest(data []byte) (*Request, int, error) {
	return parseMessage(data, parseRequestHead)
}

// ParseResponse decodes one response from data, returning the message and
// bytes consumed, or ErrIncomplete. Like ParseRequest, the returned Body
// is a zero-copy view of data.
func ParseResponse(data []byte) (*Response, int, error) {
	return parseMessage(data, parseResponseHead)
}

// message is what the head parsers build: a request or response whose
// body is attached once it has arrived.
type message interface {
	*Request | *Response
}

// setBody attaches a message's body.
func setBody[M message](m M, body []byte) {
	switch m := any(m).(type) {
	case *Request:
		m.Body = body
	case *Response:
		m.Body = body
	}
}

// parseMessage is the one-shot parse behind ParseRequest and
// ParseResponse: split off the head, parse it, and attach the body once
// data holds all Content-Length bytes of it.
func parseMessage[M message](data []byte, parseHead func([]byte) (M, int, error)) (M, int, error) {
	head, bodyOff, err := splitHead(data)
	if err != nil {
		return nil, 0, err
	}
	m, clen, err := parseHead(head)
	if err != nil {
		return nil, 0, err
	}
	if len(data)-bodyOff < clen {
		return nil, 0, ErrIncomplete
	}
	setBody(m, data[bodyOff:bodyOff+clen:bodyOff+clen])
	return m, bodyOff + clen, nil
}

// parseRequestHead decodes a request's head block (the bytes before the
// blank line) into a body-less Request and its Content-Length.
func parseRequestHead(head []byte) (*Request, int, error) {
	startLine, rest := parseHead(head)
	parts, n := splitStartLine(startLine)
	if n != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, 0, &malformedError{"request line", startLine}
	}
	hdr, err := parseHeaders(rest)
	if err != nil {
		return nil, 0, err
	}
	clen, err := contentLength(hdr)
	if err != nil {
		return nil, 0, err
	}
	req := &Request{Method: parts[0], Path: parts[1], Host: hdr.Get("Host"), Header: hdr}
	hdr.Del("Host")
	return req, clen, nil
}

// parseResponseHead decodes a response's head block into a body-less
// Response and its Content-Length.
func parseResponseHead(head []byte) (*Response, int, error) {
	startLine, rest := parseHead(head)
	parts, n := splitStartLine(startLine)
	if n < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, 0, &malformedError{"status line", startLine}
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, 0, &malformedError{"status code", parts[1]}
	}
	status := ""
	if n == 3 {
		status = parts[2]
	}
	hdr, err := parseHeaders(rest)
	if err != nil {
		return nil, 0, err
	}
	clen, err := contentLength(hdr)
	if err != nil {
		return nil, 0, err
	}
	return &Response{StatusCode: code, Status: status, Header: hdr}, clen, nil
}

// maxReserve caps how much of a message's declared length a receiver
// reserves up front: a hostile Content-Length must not buy a giant
// allocation with a few header bytes. Longer bodies still arrive, by
// append growth past the cap.
const maxReserve = 1 << 20

// receiver assembles one message delivered in pieces, as ParseRequest
// or ParseResponse would from the growing buffer, but parses the head
// once: when the blank line arrives. The buffer is then reserved for
// the whole message and the message is complete, on the same byte the
// one-shot parse would first succeed, once the body has arrived. A
// malformed head fails every later one-shot parse as well, so the
// receiver then yields nothing, ever.
type receiver[M message] struct {
	parseHead func([]byte) (M, int, error)
	buf       []byte
	msg       M
	bodyOff   int // 0 until the head has been parsed
	clen      int
	failed    bool
}

// feed appends b and returns the message once it is complete. After
// that, or after a malformed head, further bytes are ignored.
func (r *receiver[M]) feed(b []byte) (M, bool) {
	if r.failed || (r.bodyOff > 0 && len(r.buf)-r.bodyOff >= r.clen) {
		return nil, false
	}
	if r.bodyOff == 0 {
		// A head that arrives whole (the common case) is found and parsed
		// in b itself, so the buffer is allocated once, at its final size.
		from, data := 0, b
		if len(r.buf) > 0 {
			from = max(len(r.buf)-3, 0) // the blank line may straddle the old end
			r.buf = append(r.buf, b...)
			data, b = r.buf, nil
		}
		i := bytes.Index(data[from:], crlf2)
		if i < 0 {
			r.buf = append(r.buf, b...)
			return nil, false
		}
		var err error
		if r.msg, r.clen, err = r.parseHead(data[:from+i]); err != nil {
			r.failed, r.buf = true, nil
			return nil, false
		}
		r.bodyOff = from + i + len(crlf2)
		if more := r.clen - (len(data) - r.bodyOff); more > 0 {
			r.buf = slices.Grow(r.buf, len(b)+min(more, maxReserve))
		}
	}
	r.buf = append(r.buf, b...)
	if len(r.buf)-r.bodyOff < r.clen {
		return nil, false
	}
	end := r.bodyOff + r.clen
	setBody(r.msg, r.buf[r.bodyOff:end:end])
	return r.msg, true
}
