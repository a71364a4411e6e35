package netsim

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"masterparasite/internal/runner"
)

// LinkProfile is the fault model of one segment: the knobs a real link
// would expose through tc/netem (loss, jitter, reordering, duplication,
// bandwidth). A segment without a profile — or with a Clean one — is
// the historical perfect wire: zero PRNG draws, byte-identical wire
// events. Faults are drawn from a per-segment PRNG seeded from
// (Seed, segment name) only, so a faulted run is a pure function of the
// profile and the send sequence — never of wall clock, goroutine
// scheduling, or the -parallel worker count.
type LinkProfile struct {
	// Name labels the profile in artifacts and CLI flags.
	Name string
	// Loss is the probability a unicast delivery is dropped on the
	// link (taps still observe the send — an eavesdropper at the access
	// point hears frames the distant addressee loses).
	Loss float64
	// Jitter adds a uniform extra delivery delay in [0, Jitter) per
	// delivered copy.
	Jitter time.Duration
	// Reorder is the probability a delivered copy is additionally held
	// back by ReorderDelay, letting later sends overtake it.
	Reorder      float64
	ReorderDelay time.Duration
	// Duplicate is the probability the addressee receives the frame
	// twice (the extra copy draws its own jitter/reorder delays).
	Duplicate float64
	// Bandwidth caps the link in bytes per simulated second: frames
	// queue behind each other and occupy the wire for size/Bandwidth.
	// 0 means unlimited.
	Bandwidth int64
	// Seed is the fault-PRNG seed, mixed with the segment name.
	Seed uint64
}

// Clean reports whether the profile injects no faults at all; a clean
// profile keeps the segment on the historical zero-draw fast path.
func (p LinkProfile) Clean() bool {
	return p.Loss == 0 && p.Jitter == 0 && p.Reorder == 0 &&
		p.Duplicate == 0 && p.Bandwidth == 0
}

// Profiles returns the named preset condition grid used by the
// `conditions` artifact and the -conditions CLI flag, ordered from
// kindest to harshest.
func Profiles() []LinkProfile {
	return []LinkProfile{
		{Name: "clean"},
		{
			Name: "coffee-shop-wifi",
			Loss: 0.02, Jitter: 2 * time.Millisecond,
			Reorder: 0.02, ReorderDelay: time.Millisecond,
			Duplicate: 0.01, Bandwidth: 4 << 20,
		},
		{
			Name: "mobile-handoff",
			Loss: 0.06, Jitter: 12 * time.Millisecond,
			Reorder: 0.10, ReorderDelay: 8 * time.Millisecond,
			Duplicate: 0.03, Bandwidth: 1 << 20,
		},
		{
			Name: "congested",
			Loss: 0.12, Jitter: 6 * time.Millisecond,
			Reorder: 0.05, ReorderDelay: 4 * time.Millisecond,
			Duplicate: 0.02, Bandwidth: 512 << 10,
		},
	}
}

// ProfileNames lists the preset names, sorted.
func ProfileNames() []string {
	var names []string
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return names
}

// ProfileByName resolves a preset by name; the error enumerates the
// valid names so CLI validation can surface them verbatim.
func ProfileByName(name string) (LinkProfile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return LinkProfile{}, fmt.Errorf("unknown link profile %q (known: %s)",
		name, strings.Join(ProfileNames(), " "))
}

// linkRNG is a splitmix64 stream — small, allocation-free, and fully
// determined by its seed, which is all the fault model needs.
type linkRNG struct{ state uint64 }

func (r *linkRNG) next() (z uint64) {
	r.state, z = runner.SplitMix64(r.state)
	return z
}

// chance consumes one draw and reports true with probability p.
func (r *linkRNG) chance(p float64) bool {
	return float64(r.next()>>11)/(1<<53) < p
}

// durationBelow consumes one draw and returns a duration in [0, max).
func (r *linkRNG) durationBelow(max time.Duration) time.Duration {
	return time.Duration(r.next() % uint64(max))
}

// SetLinkProfile installs (or, with a Clean profile, removes) the
// segment's fault model and resets its fault PRNG, bandwidth queue, and
// counters. The PRNG state depends only on (profile seed, segment
// name): reinstalling the same profile replays the same fault sequence.
func (s *Segment) SetLinkProfile(p LinkProfile) {
	s.profile = p
	s.faulty = !p.Clean()
	s.rng = linkRNG{state: p.Seed ^ runner.FNV64a(s.name)}
	s.busyUntil = 0
	s.lost, s.duplicated = 0, 0
}

// Profile returns the segment's installed link profile.
func (s *Segment) Profile() LinkProfile { return s.profile }

// Lost reports how many unicast deliveries the link's loss model has
// eaten since the profile was installed.
func (s *Segment) Lost() int { return s.lost }

// Duplicated reports how many frames the link delivered twice.
func (s *Segment) Duplicated() int { return s.duplicated }

// serialize accounts for the bandwidth cap: the link is one shared
// medium, so a frame waits for frames queued before it and then
// occupies the wire for size/Bandwidth seconds. Returns the extra delay
// past the frame's nominal wire entry at now+senderDelay.
func (s *Segment) serialize(size int, senderDelay time.Duration) time.Duration {
	if s.profile.Bandwidth <= 0 {
		return 0
	}
	wire := s.net.now + senderDelay
	start := wire
	if s.busyUntil > start {
		start = s.busyUntil
	}
	tx := time.Duration(size) * time.Second / time.Duration(s.profile.Bandwidth)
	s.busyUntil = start + tx
	return s.busyUntil - wire
}
