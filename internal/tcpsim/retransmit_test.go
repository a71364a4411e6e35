package tcpsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"masterparasite/internal/netsim"
)

// faultyLab is newLab with a link profile on the shared segment and
// retransmission enabled on both stacks.
func faultyLab(t *testing.T, p netsim.LinkProfile, opts ...StackOption) *lab {
	t.Helper()
	l := newLab(t, append([]StackOption{WithRetransmit()}, opts...)...)
	l.seg.SetLinkProfile(p)
	return l
}

// transfer sends payload client→server over the lab and returns the
// bytes the server delivered plus the client conn.
func transfer(t *testing.T, l *lab, payload []byte) ([]byte, *Conn) {
	t.Helper()
	var got []byte
	if err := l.server.Listen(80, func(c *Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	conn, err := l.client.Dial("server", 80, func(c *Conn) {
		if _, err := c.Write(payload); err != nil {
			t.Errorf("client write: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	return got, conn
}

func TestRetransmitRecoversFromLoss(t *testing.T) {
	p := netsim.LinkProfile{Name: "lossy", Loss: 0.15, Seed: 3}
	l := faultyLab(t, p, WithMSS(512))
	payload := bytes.Repeat([]byte("abcdefgh"), 4096) // 32 KiB
	got, conn := transfer(t, l, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("server got %d bytes, want %d — stream corrupted under loss", len(got), len(payload))
	}
	if l.seg.Lost() == 0 {
		t.Fatal("link lost nothing at 15% loss; test is vacuous")
	}
	if conn.Stats().Retransmits == 0 {
		t.Fatal("transfer completed without a single retransmission at 15% loss")
	}
}

func TestHandshakeSurvivesHeavyLoss(t *testing.T) {
	// 50% loss: SYN, SYN-ACK, or the final ACK will be eaten within a
	// few connections; the handshake machinery must recover all cases.
	p := netsim.LinkProfile{Name: "harsh", Loss: 0.5, Seed: 11}
	l := faultyLab(t, p)
	got, conn := transfer(t, l, []byte("ping"))
	if string(got) != "ping" {
		t.Fatalf("server got %q, want ping", got)
	}
	if conn.State() != StateEstablished {
		t.Fatalf("client state = %v, want ESTABLISHED", conn.State())
	}
}

func TestFastRetransmitFiresOnDupAcks(t *testing.T) {
	// Modest loss over a many-segment burst: segments behind a hole
	// arrive out of order, the receiver emits duplicate ACKs, and the
	// sender must fast-retransmit before the RTO fires at least once.
	p := netsim.LinkProfile{Name: "burst", Loss: 0.08, Seed: 5}
	l := faultyLab(t, p, WithMSS(256))
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	got, conn := transfer(t, l, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("server got %d bytes, want %d", len(got), len(payload))
	}
	if conn.Stats().FastRetransmits == 0 {
		t.Fatalf("no fast retransmits over a %d-segment burst at 8%% loss (stats %+v)",
			len(payload)/256, conn.Stats())
	}
}

func TestGiveUpAfterRetryCap(t *testing.T) {
	// RTO above the lab's ~12ms RTT so the clean handshake never fires a
	// spurious retransmission and the count below is exactly the cap.
	l := newLab(t, WithRetransmit(), WithRTO(30*time.Millisecond))
	if err := l.server.Listen(80, func(c *Conn) {}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	conn, err := l.client.Dial("server", 80, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0) // establish cleanly
	if conn.State() != StateEstablished {
		t.Fatalf("state = %v, want ESTABLISHED", conn.State())
	}
	// The server host leaves the network: every retransmission is wasted
	// and the client must eventually give up and tear down.
	closed := false
	conn.OnClose(func() { closed = true })
	l.server.ifc.SetReceiveDrop(true)
	if _, err := conn.Write([]byte("into the void")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	l.net.Run(0)
	if conn.State() != StateClosed || !closed {
		t.Fatalf("state = %v closed=%v after retry cap, want CLOSED", conn.State(), closed)
	}
	if got := conn.Stats().Timeouts; got != DefaultMaxRetries {
		t.Fatalf("Timeouts = %d, want %d (cap)", got, DefaultMaxRetries)
	}
}

func TestSequenceWraparoundUnderRetransmission(t *testing.T) {
	// Both ISNs start just below 2^32 so the stream crosses the modular
	// boundary mid-transfer, on a lossy link for good measure.
	p := netsim.LinkProfile{Name: "wrap", Loss: 0.1, Seed: 17}
	l := faultyLab(t, p, WithMSS(512), WithISN(0xFFFFF000))
	payload := bytes.Repeat([]byte("wrap"), 4096) // 16 KiB >> 0x1000
	got, conn := transfer(t, l, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("server got %d bytes, want %d across the seq wrap", len(got), len(payload))
	}
	// The raw sequence number must now be numerically tiny: the stream
	// crossed 2^32 and wrapped back around.
	if conn.SndNxt() >= 0x10000 {
		t.Fatalf("SndNxt = %#x: stream never crossed the wrap", conn.SndNxt())
	}
}

func TestRetransmitOnCleanWireIsByteIdentical(t *testing.T) {
	// Enabling the machinery on a perfect link must not change a single
	// wire event: RTO > RTT means timers only ever fire as no-ops.
	run := func(retransmit bool) []string {
		n := netsim.New()
		seg := n.MustSegment("wifi", time.Millisecond)
		cIfc := seg.MustAttach("client", 0, nil)
		sIfc := seg.MustAttach("server", 5*time.Millisecond, nil)
		opts := []StackOption{WithSeed(7), WithMSS(512)}
		if retransmit {
			opts = append(opts, WithRetransmit())
		}
		client := NewStack(n, cIfc, opts...)
		server := NewStack(n, sIfc, append([]StackOption{WithSeed(11), WithMSS(512)}, opts[2:]...)...)
		var stream []string
		n.SetWireTap(func(e netsim.WireEvent) {
			stream = append(stream, fmt.Sprintf("%s t=%d %s>%s %dB", e.Kind, e.Time, e.Src, e.Dst, len(e.Payload)))
		})
		payload := bytes.Repeat([]byte("x"), 4000)
		if err := server.Listen(80, func(c *Conn) {
			c.OnData(func(b []byte) {})
		}); err != nil {
			t.Fatalf("Listen: %v", err)
		}
		if _, err := client.Dial("server", 80, func(c *Conn) {
			if _, err := c.Write(payload); err != nil {
				t.Errorf("write: %v", err)
			}
			c.Close()
		}); err != nil {
			t.Fatalf("Dial: %v", err)
		}
		n.Run(0)
		return stream
	}
	without := run(false)
	with := run(true)
	if len(without) != len(with) {
		t.Fatalf("wire stream length changed: %d without vs %d with retransmit", len(without), len(with))
	}
	for i := range without {
		if without[i] != with[i] {
			t.Fatalf("wire event %d diverged:\nwithout: %s\nwith:    %s", i, without[i], with[i])
		}
	}
}

// TestSendBufferBoundedWhenQueueNeverDrains streams as many 256-byte
// rounds as the full soak over its lossy, duplicating, jittery link,
// writing each round while the previous one is still unacknowledged,
// so the retransmission queue never drains and the send buffer is
// never simply reset. Compaction must keep it near the outstanding
// data; without it, it would hold the whole 51 MB stream.
func TestSendBufferBoundedWhenQueueNeverDrains(t *testing.T) {
	rounds := 200_000
	if testing.Short() {
		rounds = 2000
	}
	p := netsim.LinkProfile{Name: "soak", Loss: 0.05, Duplicate: 0.02, Jitter: time.Millisecond, Seed: 9}
	l := faultyLab(t, p, WithMSS(512))
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 16)
	var conn *Conn
	written, received, drainedWrites, maxCap := 0, 0, 0, 0
	write := func() {
		if len(conn.rtxQ) == 0 {
			drainedWrites++
		}
		if _, err := conn.Write(chunk); err != nil {
			t.Fatalf("write: %v", err)
		}
		written++
		maxCap = max(maxCap, cap(conn.sndBuf))
	}
	if err := l.server.Listen(80, func(c *Conn) {
		c.OnData(func(b []byte) {
			// Write the next round as soon as the server sees data: the
			// client's last round is then still awaiting its ACK.
			for received += len(b); written < rounds && received > (written-1)*len(chunk); {
				write()
			}
		})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var err error
	if conn, err = l.client.Dial("server", 80, func(*Conn) { write() }); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	if received != rounds*len(chunk) {
		t.Fatalf("server received %d bytes, want %d", received, rounds*len(chunk))
	}
	if drainedWrites > 1 {
		t.Fatalf("%d writes found the queue drained; the stream must keep it occupied", drainedWrites)
	}
	if maxCap > 16<<10 {
		t.Errorf("send buffer grew to %d bytes for a stream with a few 256-byte rounds outstanding, want <= 16 KiB", maxCap)
	}
	if len(conn.rtxQ) != 0 || len(conn.sndBuf) != 0 {
		t.Errorf("after the last ACK: %d queued segments, %d buffered bytes; want none", len(conn.rtxQ), len(conn.sndBuf))
	}
}
