package attacker

import (
	"masterparasite/internal/cnc"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/tcpsim"
)

// CNCAdapter serves a cnc.MasterServer over httpsim, so the same covert
// protocol runs both on a real loopback socket (cnc package, cmd/master)
// and inside the packet simulation (Fig. 4's "establish C&C connection").
// It dispatches straight into the server's transport-independent Route,
// skipping the net/http request and response-recorder scaffolding the
// simulation used to pay for on every covert image; the header policy is
// shared with ServeHTTP through cnc.SetResponseHeaders, so the two
// transports stay byte-identical on the wire. Bodies are rendered into
// one buffer reused across requests: a response is marshalled as soon
// as the handler returns, before the next request can overwrite it.
func CNCAdapter(m *cnc.MasterServer) httpsim.HandlerFunc {
	var buf []byte
	return func(req *httpsim.Request) *httpsim.Response {
		status, ctype, body := m.Route(req.Path, buf[:0])
		buf = body
		out := httpsim.NewResponse(status, body)
		cnc.SetResponseHeaders(status, ctype, out.Header.Set)
		return out
	}
}

// NewCNCServer starts the in-simulation C&C endpoint on the attacker's
// remote server stack.
func NewCNCServer(stack *tcpsim.Stack, port uint16, m *cnc.MasterServer) (*httpsim.Server, error) {
	return httpsim.NewServer(stack, port, CNCAdapter(m))
}
