package sched

import (
	"fmt"
	"sync"

	"avdb/internal/media"
	"avdb/internal/obs"
)

// Resources is a bundle of the finite system resources §3.3 names:
// buffers, processor cycles and bus bandwidth.  Processor capacity is
// expressed as a data-processing rate (bytes/s the CPU can move through
// activity code), which is the unit everything else budgets in.
type Resources struct {
	Buffers int
	CPU     media.DataRate
	Bus     media.DataRate
}

// Add returns r + o componentwise.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.Buffers + o.Buffers, r.CPU + o.CPU, r.Bus + o.Bus}
}

// Sub returns r - o componentwise.
func (r Resources) Sub(o Resources) Resources {
	return Resources{r.Buffers - o.Buffers, r.CPU - o.CPU, r.Bus - o.Bus}
}

// Fits reports whether r fits inside budget in every component.
func (r Resources) Fits(budget Resources) bool {
	return r.Buffers <= budget.Buffers && r.CPU <= budget.CPU && r.Bus <= budget.Bus
}

// IsZero reports whether no resources are requested.
func (r Resources) IsZero() bool { return r == Resources{} }

// nonNegative reports whether every component is >= 0.
func (r Resources) nonNegative() bool {
	return r.Buffers >= 0 && r.CPU >= 0 && r.Bus >= 0
}

// String formats the bundle.
func (r Resources) String() string {
	return fmt.Sprintf("{buffers:%d cpu:%v bus:%v}", r.Buffers, r.CPU, r.Bus)
}

// ErrAdmission is wrapped by reservation failures.
var ErrAdmission = fmt.Errorf("sched: insufficient resources")

// Grant lifecycle sentinels: misuse of a grant is reported with a
// wrapped sentinel so policy code (the engine's restore sweep, a
// client's degradation handler) can distinguish "the grant is gone" —
// not worth retrying — from a transient capacity failure.
var (
	// ErrGrantReleased is wrapped by Shrink or Grow on a released grant.
	ErrGrantReleased = fmt.Errorf("sched: grant released")
	// ErrGrantGrow is wrapped by a Shrink whose target exceeds the
	// grant: shrinking is strictly downward, growing goes through Grow
	// so the delta is re-admitted against the budget.
	ErrGrantGrow = fmt.Errorf("sched: shrink cannot grow a grant")
)

// Admission is the database's resource pre-allocation authority.  Clients
// reserve resources before starting activities; a request that does not
// fit alongside existing grants fails immediately, which is the paper's
// "in requesting a video source the application is allocating resources
// within the database system.  If insufficient resources were available
// this statement would fail."
type Admission struct {
	mu    sync.Mutex
	total Resources
	used  Resources
	m     admissionMetrics // guarded by mu
}

// admissionMetrics holds an installed sink's admission handles; all nil
// without one.
type admissionMetrics struct {
	reserve, reject, shrink, grow, release *obs.Counter
	usedBuffers, usedCPU, usedBus          *obs.Gauge
}

// NewAdmission returns an admission controller with the given budget.  A
// budget with a negative component is a configuration error, reported
// rather than panicked so that callers can surface it to their clients.
func NewAdmission(total Resources) (*Admission, error) {
	if !total.nonNegative() {
		return nil, fmt.Errorf("sched: negative admission budget %v", total)
	}
	return &Admission{total: total}, nil
}

// SetSink installs an observability sink.  The admission counters
// (admission.reserve / admission.reject / admission.release) and the
// utilization gauges (admission.used_* / admission.total_*) flow to it.
func (a *Admission) SetSink(s obs.Sink) {
	var m admissionMetrics
	if s != nil {
		m = admissionMetrics{
			reserve:     s.Counter("admission.reserve"),
			reject:      s.Counter("admission.reject"),
			shrink:      s.Counter("admission.shrink"),
			grow:        s.Counter("admission.grow"),
			release:     s.Counter("admission.release"),
			usedBuffers: s.Gauge("admission.used_buffers"),
			usedCPU:     s.Gauge("admission.used_cpu"),
			usedBus:     s.Gauge("admission.used_bus"),
		}
	}
	a.mu.Lock()
	a.m = m
	if s != nil {
		s.Gauge("admission.total_buffers").Set(int64(a.total.Buffers))
		s.Gauge("admission.total_cpu").Set(int64(a.total.CPU))
		s.Gauge("admission.total_bus").Set(int64(a.total.Bus))
		a.publishUsedLocked()
	}
	a.mu.Unlock()
}

// publishUsedLocked pushes the utilization gauges; callers hold a.mu.
func (a *Admission) publishUsedLocked() {
	a.m.usedBuffers.Set(int64(a.used.Buffers))
	a.m.usedCPU.Set(int64(a.used.CPU))
	a.m.usedBus.Set(int64(a.used.Bus))
}

// Total reports the full budget.
func (a *Admission) Total() Resources {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Used reports the currently granted resources.
func (a *Admission) Used() Resources {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Reserve grants r, failing if it does not fit the remaining budget.
// The returned grant releases exactly once.
func (a *Admission) Reserve(r Resources) (*Grant, error) {
	if !r.nonNegative() {
		return nil, fmt.Errorf("sched: negative reservation %v", r)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.used.Add(r).Fits(a.total) {
		a.m.reject.Add(1)
		return nil, fmt.Errorf("%w: %v requested, %v of %v free", ErrAdmission, r, a.total.Sub(a.used), a.total)
	}
	a.used = a.used.Add(r)
	a.m.reserve.Add(1)
	a.publishUsedLocked()
	return &Grant{a: a, r: r}, nil
}

// Grant is an outstanding resource reservation.
type Grant struct {
	mu       sync.Mutex
	a        *Admission
	r        Resources
	released bool
}

// Resources reports what the grant holds.
func (g *Grant) Resources() Resources {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r
}

// Shrink reduces the grant to the smaller bundle, returning the freed
// resources to the admission budget.  This is the re-reservation a
// degradation policy performs when a stream renegotiates to a lower
// quality: the smaller grant always fits, so shrinking cannot fail for
// capacity reasons.  Growing a grant (wrapped ErrGrantGrow), or
// shrinking a released one (wrapped ErrGrantReleased), is an error
// that leaves the grant untouched.
func (g *Grant) Shrink(to Resources) error {
	if !to.nonNegative() {
		return fmt.Errorf("sched: negative shrink target %v", to)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return fmt.Errorf("%w: shrink to %v", ErrGrantReleased, to)
	}
	if !to.Fits(g.r) {
		return fmt.Errorf("%w: target %v exceeds grant %v", ErrGrantGrow, to, g.r)
	}
	freed := g.r.Sub(to)
	g.r = to
	g.a.mu.Lock()
	g.a.used = g.a.used.Sub(freed)
	g.a.m.shrink.Add(1)
	g.a.publishUsedLocked()
	g.a.mu.Unlock()
	return nil
}

// Grow raises the grant back toward a larger bundle — the restore half
// of a degradation cycle.  Unlike Shrink, growing competes for the
// budget again: the delta must fit the controller's free resources or
// the call fails with a wrapped ErrAdmission and the grant is
// unchanged, in which case the stream simply stays degraded.  A target
// the grant already covers is a no-op.  Growing a released grant fails
// with a wrapped ErrGrantReleased.
func (g *Grant) Grow(to Resources) error {
	if !to.nonNegative() {
		return fmt.Errorf("sched: negative grow target %v", to)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return fmt.Errorf("%w: grow to %v", ErrGrantReleased, to)
	}
	if to.Fits(g.r) {
		return nil
	}
	// Clamp componentwise so a mixed target (some components below the
	// grant) only ever adds, never silently shrinks.
	target := to
	if target.Buffers < g.r.Buffers {
		target.Buffers = g.r.Buffers
	}
	if target.CPU < g.r.CPU {
		target.CPU = g.r.CPU
	}
	if target.Bus < g.r.Bus {
		target.Bus = g.r.Bus
	}
	delta := target.Sub(g.r)
	g.a.mu.Lock()
	if !g.a.used.Add(delta).Fits(g.a.total) {
		free := g.a.total.Sub(g.a.used)
		g.a.m.reject.Add(1)
		g.a.mu.Unlock()
		return fmt.Errorf("%w: grow needs %v, %v free", ErrAdmission, delta, free)
	}
	g.a.used = g.a.used.Add(delta)
	g.a.m.grow.Add(1)
	g.a.publishUsedLocked()
	g.a.mu.Unlock()
	g.r = target
	return nil
}

// Release returns the grant's resources.  Releasing twice is a no-op.
func (g *Grant) Release() {
	g.mu.Lock()
	if g.released {
		g.mu.Unlock()
		return
	}
	g.released = true
	r := g.r
	g.mu.Unlock()
	g.a.mu.Lock()
	g.a.used = g.a.used.Sub(r)
	g.a.m.release.Add(1)
	g.a.publishUsedLocked()
	g.a.mu.Unlock()
}
