// Package chaos is the deterministic process/storage fault-point
// framework: named fault sites threaded through the daemon's storage
// and fleet paths, armed by a seeded splitmix64 schedule, zero-cost
// when disarmed.
//
// A fault site is a string naming one place the code can fail
// ("store.rename", "fleet.job.crash"). Instrumented code asks the
// framework for a verdict every time execution crosses a site — via
// the package-level Point (one atomic load when nothing is enabled) or
// an explicitly injected Controller — and the Controller decides, from
// its seed and the site's hit count alone, whether a fault fires
// there. Two fault kinds exist:
//
//   - Fail: the operation fails cleanly (an injected error such as
//     ENOSPC or a short write) and the process lives. Fail faults can
//     recur on a seeded schedule — the chaos-monkey mode cmd/labd's
//     -chaos flag arms.
//   - Crash: the operation is cut mid-flight (partial effects allowed,
//     e.g. a torn write) and the process is dead — the Controller
//     latches Killed and every subsequent instrumented operation fails
//     with ErrKilled, the in-process stand-in for kill -9. A test then
//     "reboots" by discarding the dead server and opening a fresh one
//     over the surviving on-disk state.
//
// Determinism is the whole point: a Controller's decisions are a pure
// function of (seed, site, hit count). The same seed against the same
// operation sequence kills the same operation, so every cell of the
// kill-point recovery matrix is reproducible.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"masterparasite/internal/runner"
)

// Kind classifies what an armed fault does to the operation it fires on.
type Kind int

const (
	// Fail makes the operation return an injected error; the process
	// survives and may retry or surface the failure.
	Fail Kind = iota
	// Crash cuts the operation mid-flight and latches the Controller
	// killed: partial effects may remain (a torn file, a missing
	// rename) and every later instrumented operation fails with
	// ErrKilled until the "process" is restarted over the debris.
	Crash
)

func (k Kind) String() string {
	if k == Crash {
		return "crash"
	}
	return "fail"
}

// Sentinel errors injected faults are built from; callers classify
// with errors.Is.
var (
	// ErrInjected marks any error manufactured by this package.
	ErrInjected = errors.New("injected fault")
	// ErrNoSpace is the injected ENOSPC analogue for write faults.
	ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)
	// ErrKilled is what every instrumented operation returns once a
	// Crash fault has latched — the process is dead and nothing it
	// attempts afterwards reaches the disk.
	ErrKilled = fmt.Errorf("%w: process killed", ErrInjected)
)

// IsKilled reports whether err came from a latched Crash fault.
func IsKilled(err error) bool { return errors.Is(err, ErrKilled) }

// Site describes one registered fault site for docs and matrix
// enumeration.
type Site struct {
	// Name is the site's stable identity ("store.rename").
	Name string
	// Desc says what operation the site guards.
	Desc string
}

var siteReg struct {
	mu    sync.Mutex
	order []Site
	seen  map[string]bool
}

// RegisterSite records a fault site in the package-level registry so
// Sites can enumerate it. Registering the same name twice is a no-op;
// packages register their sites at init time (this package registers
// the store.* filesystem sites, internal/labd the fleet.* ones).
func RegisterSite(name, desc string) {
	siteReg.mu.Lock()
	defer siteReg.mu.Unlock()
	if siteReg.seen == nil {
		siteReg.seen = make(map[string]bool)
	}
	if siteReg.seen[name] {
		return
	}
	siteReg.seen[name] = true
	siteReg.order = append(siteReg.order, Site{Name: name, Desc: desc})
}

// Sites returns every registered fault site sorted by name — the
// enumeration the kill-point recovery matrix sweeps and the docs table
// renders.
func Sites() []Site {
	siteReg.mu.Lock()
	defer siteReg.mu.Unlock()
	out := append([]Site(nil), siteReg.order...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// scheduleWindow bounds how far ahead Arm schedules a fault: the drawn
// hit offset is in [1, scheduleWindow].
const scheduleWindow = 8

// Verdict is a Controller's decision at one site crossing.
type Verdict struct {
	// Fired reports whether a fault fires on this hit.
	Fired bool
	// Kind is the armed fault's kind (meaningful only when Fired).
	Kind Kind
	// Rand is a deterministic per-firing draw instrumented code uses
	// for fault-specific effects (e.g. where to cut a short write).
	Rand uint64
}

// Err renders the verdict as the error the instrumented operation
// should return: nil when nothing fired, ErrKilled for a crash, and an
// ErrInjected-wrapped failure naming op otherwise.
func (v Verdict) Err(op string) error {
	if !v.Fired {
		return nil
	}
	if v.Kind == Crash {
		return ErrKilled
	}
	return fmt.Errorf("chaos: %s: %w", op, ErrInjected)
}

// arm is one scheduled fault at one site.
type arm struct {
	kind  Kind
	hit   int    // fires when the site's hit count reaches this (1-based)
	recur bool   // Fail faults re-draw a next hit after firing
	state uint64 // per-site PRNG state for draws
}

// Controller owns one seeded fault schedule. The zero value is not
// usable; construct with New. All methods are safe for concurrent use,
// and a nil *Controller is inert (every Hit returns the zero Verdict),
// so call sites can thread an optional controller without guards.
type Controller struct {
	mu     sync.Mutex
	seed   uint64
	arms   map[string]*arm
	hits   map[string]int
	fired  map[string]int
	killed atomic.Bool
}

// New returns a controller whose schedule derives entirely from seed.
func New(seed int64) *Controller {
	return &Controller{
		seed:  uint64(seed),
		arms:  make(map[string]*arm),
		hits:  make(map[string]int),
		fired: make(map[string]int),
	}
}

// siteState seeds a site's private PRNG stream.
func (c *Controller) siteState(site string) uint64 { return c.seed ^ runner.FNV64a(site) }

// ArmAt schedules a fault of the given kind to fire on exactly the
// hit-th crossing of site (1-based). Crash faults are one-shot by
// nature; Fail faults armed through ArmAt fire once.
func (c *Controller) ArmAt(site string, hit int, kind Kind) {
	if hit < 1 {
		hit = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arms[site] = &arm{kind: kind, hit: hit, state: c.siteState(site)}
}

// Arm schedules a fault at site with the hit drawn from the seeded
// schedule (within the next scheduleWindow crossings). Fail faults
// recur — after firing, the next hit is re-drawn — which is the
// chaos-monkey mode for long-lived daemons; Crash faults fire once.
func (c *Controller) Arm(site string, kind Kind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, state := runner.SplitMix64(c.siteState(site))
	a := &arm{kind: kind, state: state, recur: kind == Fail}
	a.hit = c.hits[site] + 1 + int(state%scheduleWindow)
	c.arms[site] = a
}

// ArmStoreFaults arms a recurring Fail fault on every store.* fault
// site at seeded hit offsets — the survivable storage-chaos profile
// cmd/labd's -chaos flag turns on. The daemon must tolerate every
// fault this injects: failed enqueues surface to the client, failed
// stage persists are retried by the next transition, and recovery
// quarantines whatever debris is left behind.
func (c *Controller) ArmStoreFaults() {
	for _, s := range Sites() {
		if len(s.Name) > 6 && s.Name[:6] == "store." {
			c.Arm(s.Name, Fail)
		}
	}
}

// Hit records one crossing of site and returns the verdict. Once a
// Crash fault has latched, every Hit — any site — returns a fired
// Crash verdict, modelling a process that no longer executes anything.
// Hit on a nil controller returns the zero (disarmed) verdict.
func (c *Controller) Hit(site string) Verdict {
	if c == nil {
		return Verdict{}
	}
	if c.killed.Load() {
		return Verdict{Fired: true, Kind: Crash}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits[site]++
	a := c.arms[site]
	if a == nil || c.hits[site] != a.hit {
		return Verdict{}
	}
	_, a.state = runner.SplitMix64(a.state)
	v := Verdict{Fired: true, Kind: a.kind, Rand: a.state}
	c.fired[site]++
	if a.kind == Crash {
		c.killed.Store(true)
	} else if a.recur {
		_, a.state = runner.SplitMix64(a.state)
		a.hit = c.hits[site] + 1 + int(a.state%scheduleWindow)
	} else {
		delete(c.arms, site)
	}
	return v
}

// Killed reports whether a Crash fault has latched.
func (c *Controller) Killed() bool { return c != nil && c.killed.Load() }

// Fired reports how many faults have fired at site.
func (c *Controller) Fired(site string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired[site]
}

// Hits reports how many times site has been crossed.
func (c *Controller) Hits(site string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits[site]
}

// The globally enabled controller, consulted by Point and by FS values
// not bound to a specific controller. nil (the default) means chaos is
// off and every instrumented site costs one atomic load.
var active atomic.Pointer[Controller]

// Enable installs c as the global controller behind Point. Tests that
// need isolation should bind a controller explicitly (BindFS,
// per-server config) instead of enabling globally.
func Enable(c *Controller) { active.Store(c) }

// Disable clears the global controller; every Point is inert again.
func Disable() { active.Store(nil) }

// Active returns the globally enabled controller, or nil.
func Active() *Controller { return active.Load() }

// Point is the zero-cost-when-disarmed fault site: instrumented code
// calls Point("site.name") inline and gets nil unless a globally
// enabled controller fires a fault there. With no controller enabled
// the cost is a single atomic pointer load.
func Point(site string) error {
	c := active.Load()
	if c == nil {
		return nil
	}
	return c.Hit(site).Err(site)
}
