package tcpsim

import "time"

// Retransmission defaults. The base RTO is comfortably above the
// simulation's worst-case clean round trip (~24ms through the scenario
// web farm), so a clean wire never fires a spurious retransmission and
// enabling the machinery leaves clean-run wire bytes untouched.
const (
	// DefaultRTO is the initial retransmission timeout.
	DefaultRTO = 50 * time.Millisecond
	// MaxRTO caps the exponential backoff.
	MaxRTO = 800 * time.Millisecond
	// DefaultMaxRetries is how many consecutive timeouts a connection
	// survives before giving up and tearing down.
	DefaultMaxRetries = 12
	// DupAckThreshold is the number of duplicate ACKs that triggers a
	// fast retransmit of the oldest unacknowledged segment.
	DupAckThreshold = 3
)

// WithRetransmit enables the retransmission state machine: every
// sequence-consuming segment (SYN, FIN, data) is queued until
// acknowledged, an RTO timer with exponential backoff re-sends the
// oldest outstanding segment, and duplicate ACKs trigger fast
// retransmit. Off by default — the perfect-wire experiments predate it
// and their recorded wire bytes must not change.
func WithRetransmit() StackOption {
	return func(s *Stack) { s.retransmit = true }
}

// WithRTO overrides the base retransmission timeout (tests use short
// timeouts to keep virtual time compact).
func WithRTO(d time.Duration) StackOption {
	return func(s *Stack) {
		if d > 0 {
			s.rto = d
		}
	}
}

// WithISN pins the initial send sequence number of every connection the
// stack opens or accepts, instead of drawing it from the seeded RNG.
// The wraparound soak starts just below 2^32 so live transfers cross
// the modular boundary.
func WithISN(isn uint32) StackOption {
	return func(s *Stack) {
		v := isn
		s.isnOverride = &v
	}
}

// rtxSeg is one unacknowledged sequence-consuming segment awaiting
// either an ACK or a retransmission. Its payload is sndBuf[off:off+n]
// (an offset, not a slice, so compacting the buffer only shifts it).
type rtxSeg struct {
	seq    uint32
	flags  Flags
	off, n int
	seqLen int // sequence space consumed: n, +1 for SYN/FIN
}

// track queues a sequence-consuming segment for possible retransmission
// and arms the RTO timer if the queue was empty. A data segment's
// payload must already sit in the send buffer at off (Write put it
// there); SYN and FIN carry none.
func (c *Conn) track(seg Segment, off int) {
	n := len(seg.Payload)
	seqLen := n
	if seg.Flags&(FlagSYN|FlagFIN) != 0 {
		seqLen++
	}
	c.rtxQ = append(c.rtxQ, rtxSeg{seq: seg.Seq, flags: seg.Flags, off: off, n: n, seqLen: seqLen})
	if len(c.rtxQ) == 1 {
		c.rtoBackoff = 0
		c.retries = 0
		c.armTimer()
	}
}

// armTimer schedules the next RTO expiry. Bumping timerEpoch first
// invalidates every previously scheduled expiry: netsim events cannot
// be cancelled, so stale timers fire as no-ops.
func (c *Conn) armTimer() {
	c.timerEpoch++
	d := c.stack.rto << c.rtoBackoff
	if d > MaxRTO || d <= 0 {
		d = MaxRTO
	}
	s := c.stack
	var t *rtoTimer
	if n := len(s.timers); n > 0 {
		t, s.timers = s.timers[n-1], s.timers[:n-1]
	} else {
		t = &rtoTimer{}
		t.fire = t.expire
	}
	t.c, t.epoch = c, c.timerEpoch
	s.net.Schedule(d, t.fire)
}

// rtoTimer is one scheduled RTO expiry: the connection and the epoch
// it was armed in. A timer goes back to its stack's free list when it
// fires, so arming allocates only while the list grows to the most
// expiries a stack ever has pending — an ACK re-arms the timer, and
// every ACK of a burst leaves one pending.
type rtoTimer struct {
	c     *Conn
	epoch int
	fire  func() // expire, bound once
}

func (t *rtoTimer) expire() {
	c, epoch := t.c, t.epoch
	t.c = nil
	c.stack.timers = append(c.stack.timers, t)
	c.onTimeout(epoch)
}

// onTimeout is one RTO expiry: retransmit the oldest outstanding
// segment with doubled backoff, or give up past the retry cap.
func (c *Conn) onTimeout(epoch int) {
	if epoch != c.timerEpoch || c.state == StateClosed || len(c.rtxQ) == 0 {
		return
	}
	c.retries++
	if c.retries > c.stack.maxRetries {
		// The peer is unreachable: local teardown, no FIN (it would not
		// arrive either).
		c.teardown()
		return
	}
	c.stats.Timeouts++
	if c.rtoBackoff < 6 {
		c.rtoBackoff++
	}
	c.retransmitFirst()
	c.armTimer()
}

// retransmitFirst re-sends the oldest unacknowledged segment, stamping
// the current cumulative ACK.
func (c *Conn) retransmitFirst() {
	e := c.rtxQ[0]
	c.stats.Retransmits++
	flags := e.flags
	seg := Segment{Flags: flags, Seq: e.seq, Window: DefaultWindow, Payload: c.sndBuf[e.off : e.off+e.n]}
	if flags&FlagACK != 0 || c.state == StateEstablished || c.state == StateFinWait {
		seg.Ack = c.rcvNxt
	}
	c.transmitSegment(seg)
}

// processAck advances the send window on a cumulative ACK: fully
// acknowledged segments leave the retransmission queue, backoff resets,
// and the timer re-arms for whatever is still outstanding. An exact
// duplicate ACK (no payload, no window progress) counts toward fast
// retransmit — the receiver is telling us which byte it is stuck on.
func (c *Conn) processAck(ack uint32, hasPayload bool) {
	if SeqLT(c.sndUna, ack) && SeqLEQ(ack, c.sndNxt) {
		c.sndUna = ack
		keep := c.rtxQ[:0]
		for _, e := range c.rtxQ {
			if SeqLT(ack, SeqAdd(e.seq, e.seqLen)) {
				keep = append(keep, e)
			}
		}
		c.rtxQ = keep
		c.releaseAcked()
		c.dupAcks = 0
		c.retries = 0
		c.rtoBackoff = 0
		if len(c.rtxQ) > 0 {
			c.armTimer()
		} else {
			c.timerEpoch++ // disarm: pending expiries become no-ops
		}
		return
	}
	if ack == c.sndUna && len(c.rtxQ) > 0 && !hasPayload {
		c.dupAcks++
		if c.dupAcks >= DupAckThreshold {
			c.dupAcks = 0
			c.stats.FastRetransmits++
			c.retransmitFirst()
		}
	}
}

// releaseAcked frees the send buffer's acknowledged prefix: all of it
// when the queue has drained, otherwise by sliding the outstanding
// bytes to the front once the prefix passes half the buffer, so a
// stream that never drains keeps the buffer at about twice its
// outstanding data while each byte is moved O(1) times on average.
func (c *Conn) releaseAcked() {
	if len(c.rtxQ) == 0 {
		c.sndBuf = c.sndBuf[:0]
		return
	}
	acked := c.rtxQ[0].off
	if acked <= len(c.sndBuf)/2 {
		return
	}
	c.sndBuf = c.sndBuf[:copy(c.sndBuf, c.sndBuf[acked:])]
	for i := range c.rtxQ {
		c.rtxQ[i].off -= acked
	}
}
