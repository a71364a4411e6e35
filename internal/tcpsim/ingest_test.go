package tcpsim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refReceiver is the receive window modelled one byte at a time, the
// way the reassembly rules read: a byte before rcvNxt is a duplicate, a
// byte already held is a duplicate (first-wins) or overwritten
// (last-wins), any other byte is held, and held bytes at rcvNxt are
// delivered in order. Conn.ingest must agree with it on the delivered
// stream and on the counters.
type refReceiver struct {
	policy ReassemblyPolicy
	rcvNxt uint32
	held   map[uint32]byte
	out    []byte

	dup, overwritten, outOfWindow int
}

func newRefReceiver(policy ReassemblyPolicy, rcvNxt uint32) *refReceiver {
	return &refReceiver{policy: policy, rcvNxt: rcvNxt, held: map[uint32]byte{}}
}

func (r *refReceiver) ingest(seq uint32, p []byte) {
	if d := SeqDiff(r.rcvNxt, seq); d >= DefaultWindow || d < -2*DefaultWindow {
		r.outOfWindow++
		return
	}
	for i, b := range p {
		s := SeqAdd(seq, i)
		switch _, held := r.held[s]; {
		case SeqLT(s, r.rcvNxt):
			r.dup++
		case !held:
			r.held[s] = b
		case r.policy == LastWins:
			r.held[s] = b
			r.overwritten++
		default:
			r.dup++
		}
	}
	for {
		b, ok := r.held[r.rcvNxt]
		if !ok {
			return
		}
		r.out = append(r.out, b)
		delete(r.held, r.rcvNxt)
		r.rcvNxt = SeqAdd(r.rcvNxt, 1)
	}
}

// testSeg is one segment offered to both receivers: its start relative
// to the stream's first byte, and its payload.
type testSeg struct {
	off int
	p   []byte
}

// ingestAgainstReference feeds segs to an established connection and
// to the reference model, failing at the first segment after which the
// delivered stream or a counter differs.
func ingestAgainstReference(t *testing.T, policy ReassemblyPolicy, isn uint32, segs []testSeg) {
	t.Helper()
	l := newLab(t, WithReassembly(policy), WithISN(isn))
	if err := l.server.Listen(80, func(*Conn) {}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var conn *Conn
	if _, err := l.client.Dial("server", 80, func(c *Conn) { conn = c }); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	l.net.Run(0)
	if conn == nil {
		t.Fatal("handshake failed")
	}
	var got []byte
	conn.OnData(func(b []byte) { got = append(got, b...) })
	base := conn.RcvNxt()
	ref := newRefReceiver(policy, base)
	for i, s := range segs {
		seq := SeqAdd(base, s.off)
		conn.ingest(Segment{Seq: seq, Flags: FlagACK, Payload: s.p})
		ref.ingest(seq, s.p)
		st := conn.Stats()
		if !bytes.Equal(got, ref.out) || st.DuplicateBytes != ref.dup ||
			st.OverwrittenByte != ref.overwritten || st.OutOfWindow != ref.outOfWindow {
			t.Fatalf("%v, after segment %d (offset %d, %d bytes): delivered %d bytes (equal: %v), dup %d, overwritten %d, out-of-window %d; reference delivered %d, dup %d, overwritten %d, out-of-window %d",
				policy, i, s.off, len(s.p), len(got), bytes.Equal(got, ref.out),
				st.DuplicateBytes, st.OverwrittenByte, st.OutOfWindow,
				len(ref.out), ref.dup, ref.overwritten, ref.outOfWindow)
		}
		if st.BytesDelivered != len(got) {
			t.Fatalf("BytesDelivered = %d, delivered %d", st.BytesDelivered, len(got))
		}
	}
}

// randomSegments draws a segment set over a stream of n bytes: mostly
// in-window segments with gaps, overlaps, exact duplicates and
// retransmits of delivered data, and some far-future and ancient
// segments the window check must reject. Each segment carries its own
// byte pattern, so first-wins and last-wins deliver different streams.
func randomSegments(rng *rand.Rand, n int) []testSeg {
	var segs []testSeg
	for len(segs) < 60 {
		var off int
		switch k := rng.Intn(20); {
		case k == 0: // beyond the window
			off = DefaultWindow + rng.Intn(3*DefaultWindow)
		case k == 1: // older than any plausible replay
			off = -2*DefaultWindow - 1 - rng.Intn(DefaultWindow)
		case k < 4 && len(segs) > 0: // duplicate or retransmit of an earlier segment
			prev := segs[rng.Intn(len(segs))]
			p := prev.p
			if rng.Intn(2) == 0 {
				p = bytes.ToUpper(p)
			}
			segs = append(segs, testSeg{off: prev.off, p: p})
			continue
		default:
			off = rng.Intn(n+400) - 200
		}
		p := make([]byte, 1+rng.Intn(700))
		fill := byte(rng.Intn(26))
		for i := range p {
			p[i] = 'a' + (fill+byte(i))%26
		}
		segs = append(segs, testSeg{off: off, p: p})
	}
	return segs
}

// TestIngestMatchesReference compares the receive window with the
// byte-at-a-time model over random segment sets, under both overlap
// policies, at an ordinary ISN and one that makes the stream cross the
// sequence wrap.
func TestIngestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		segs := randomSegments(rng, 4000)
		isn := uint32(rng.Int63())
		if trial%2 == 0 {
			isn = 0xFFFFF000
		}
		for _, policy := range []ReassemblyPolicy{FirstWins, LastWins} {
			ingestAgainstReference(t, policy, isn, segs)
		}
	}
}

// decodeSegments reads a fuzz input as 4-byte records: a big-endian
// int16 start offset in units of 4 bytes (reaching past the window on
// both sides), a length of 1–256, and a fill byte.
func decodeSegments(data []byte) []testSeg {
	var segs []testSeg
	for ; len(data) >= 4 && len(segs) < 64; data = data[4:] {
		off := 4 * int(int16(binary.BigEndian.Uint16(data)))
		p := make([]byte, int(data[2])+1)
		for i := range p {
			p[i] = data[3] + byte(i)
		}
		segs = append(segs, testSeg{off: off, p: p})
	}
	return segs
}

// encodeSegment is decodeSegments' record for one segment.
func encodeSegment(off, n int, fill byte) []byte {
	var rec [4]byte
	binary.BigEndian.PutUint16(rec[:], uint16(int16(off/4)))
	rec[2], rec[3] = byte(n-1), fill
	return rec[:]
}

// FuzzIngestMatchesReference runs the differential check on arbitrary
// segment sets. The seeds are Table II's injection race: a forged
// response at rcvNxt followed by the genuine one over the same bytes,
// whole, longer than the forgery, and split in two with the second
// half arriving first.
func FuzzIngestMatchesReference(f *testing.F) {
	f.Add(bytes.Join([][]byte{encodeSegment(0, 200, 'F'), encodeSegment(0, 200, 'G')}, nil))
	f.Add(bytes.Join([][]byte{encodeSegment(0, 120, 'F'), encodeSegment(0, 256, 'G')}, nil))
	f.Add(bytes.Join([][]byte{encodeSegment(100, 100, 'G'), encodeSegment(0, 200, 'F'), encodeSegment(0, 100, 'G')}, nil))
	f.Add(bytes.Join([][]byte{encodeSegment(4*20000, 16, 'X'), encodeSegment(-4*32768, 16, 'Y'), encodeSegment(0, 1, 'Z')}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		segs := decodeSegments(data)
		ingestAgainstReference(t, FirstWins, 0xFFFFFF00, segs)
		ingestAgainstReference(t, LastWins, 0xFFFFFF00, segs)
	})
}
