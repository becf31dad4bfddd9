// Package fault is the AV database's deterministic fault-injection
// subsystem.  A Plan schedules hardware misbehavior — transient device
// read errors, device outage windows, jukebox disc-swap jams, link
// bandwidth collapse, partitions, and in-flight chunk loss or
// corruption — against the virtual presentation clock, and an Injector
// realizes the plan through the fault hooks of internal/device and
// internal/netsim.
//
// Everything the paper's §3.3 guarantees — resource pre-allocation,
// client-visible scheduling, quality-factor representation — is only
// meaningful when hardware misbehaves, so faults are simulated with the
// same discipline as the hardware itself: windows are expressed in world
// time, and every probabilistic decision is a hash of the plan seed, the
// fault and the operation's name (device.Access) — never of the order
// operations arrive in — so identical plans against identical workloads
// inject identical faults however the engine interleaves sessions.  An
// hour of hardware failure replays in milliseconds, byte-identically.
package fault

import (
	"fmt"
	"sort"
	"sync"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/netsim"
	"avdb/internal/obs"
	"avdb/internal/sched"
)

// Kind classifies an injected fault.
type Kind int

// The fault kinds.
const (
	// TransientRead makes device reads fail with Probability during the
	// window; injected errors wrap device.ErrTransientRead (retryable).
	TransientRead Kind = iota
	// DeviceOutage makes every device read fail during the window;
	// injected errors wrap device.ErrDeviceFailed (not retryable).
	DeviceOutage
	// DiscSwapFail makes jukebox disc swaps fail with Probability during
	// the window; injected errors wrap device.ErrTransientRead.
	DiscSwapFail
	// LinkDegrade collapses a link's effective bandwidth: serialization
	// time divides by Factor (a Factor of 0.25 quarters the bandwidth).
	LinkDegrade
	// LinkPartition fails every transfer on the link during the window
	// with an error wrapping netsim.ErrLinkDown.
	LinkPartition
	// ChunkLoss drops chunks in flight with Probability; the transfer
	// still consumes its time.
	ChunkLoss
	// ChunkCorrupt delivers chunks with damaged payloads, with
	// Probability.
	ChunkCorrupt
)

var kindNames = [...]string{
	TransientRead: "transient-read",
	DeviceOutage:  "device-outage",
	DiscSwapFail:  "disc-swap-fail",
	LinkDegrade:   "link-degrade",
	LinkPartition: "link-partition",
	ChunkLoss:     "chunk-loss",
	ChunkCorrupt:  "chunk-corrupt",
}

// kindMetrics holds the fault.injected.<kind> counter names, resolved
// into handles by SetSink.
var kindMetrics = [...]string{
	TransientRead: "fault.injected.transient-read",
	DeviceOutage:  "fault.injected.device-outage",
	DiscSwapFail:  "fault.injected.disc-swap-fail",
	LinkDegrade:   "fault.injected.link-degrade",
	LinkPartition: "fault.injected.link-partition",
	ChunkLoss:     "fault.injected.chunk-loss",
	ChunkCorrupt:  "fault.injected.chunk-corrupt",
}

// String returns the kind's name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Fault is one scheduled misbehavior of one device or link.
type Fault struct {
	Kind   Kind
	Target string           // device ID or link ID
	Start  avtime.WorldTime // window start on the virtual clock
	Dur    avtime.WorldTime // window length; 0 means open-ended

	// Probability applies to TransientRead, DiscSwapFail, ChunkLoss and
	// ChunkCorrupt: the per-operation chance in [0, 1].
	Probability float64
	// Factor applies to LinkDegrade: the fraction of bandwidth that
	// survives, in (0, 1].
	Factor float64
}

// active reports whether the fault's window covers now.
func (f Fault) active(now avtime.WorldTime) bool {
	if now < f.Start {
		return false
	}
	return f.Dur == 0 || now < f.Start+f.Dur
}

// validate reports a configuration error.
func (f Fault) validate() error {
	if f.Target == "" {
		return fmt.Errorf("fault: fault needs a target")
	}
	if f.Start < 0 || f.Dur < 0 {
		return fmt.Errorf("fault: negative window [%v +%v]", f.Start, f.Dur)
	}
	switch f.Kind {
	case TransientRead, DiscSwapFail, ChunkLoss, ChunkCorrupt:
		if f.Probability <= 0 || f.Probability > 1 {
			return fmt.Errorf("fault: %v needs a probability in (0, 1], got %v", f.Kind, f.Probability)
		}
	case LinkDegrade:
		if f.Factor <= 0 || f.Factor > 1 {
			return fmt.Errorf("fault: %v needs a factor in (0, 1], got %v", f.Kind, f.Factor)
		}
	case DeviceOutage, LinkPartition:
		// Windowed hard faults carry no parameter.
	default:
		return fmt.Errorf("fault: unknown kind %v", f.Kind)
	}
	return nil
}

// String describes the fault.
func (f Fault) String() string {
	s := fmt.Sprintf("%v on %q from %v", f.Kind, f.Target, f.Start)
	if f.Dur > 0 {
		s += fmt.Sprintf(" for %v", f.Dur)
	}
	switch f.Kind {
	case TransientRead, DiscSwapFail, ChunkLoss, ChunkCorrupt:
		s += fmt.Sprintf(" p=%.2f", f.Probability)
	case LinkDegrade:
		s += fmt.Sprintf(" x%.2f", f.Factor)
	}
	return s
}

// Plan is a seeded set of scheduled faults.  The seed fixes every
// probabilistic draw, so one plan replayed against one workload injects
// the same faults at the same operations.
type Plan struct {
	seed   int64
	faults []Fault
}

// NewPlan returns an empty plan over the given seed.
func NewPlan(seed int64) *Plan { return &Plan{seed: seed} }

// Add schedules a fault, returning the plan for chaining.
func (p *Plan) Add(f Fault) (*Plan, error) {
	if err := f.validate(); err != nil {
		return p, err
	}
	p.faults = append(p.faults, f)
	return p, nil
}

// MustAdd schedules a fault, panicking on configuration errors — the
// convenience for statically written experiment plans.
func (p *Plan) MustAdd(f Fault) *Plan {
	if _, err := p.Add(f); err != nil {
		panic(err)
	}
	return p
}

// Faults returns the scheduled faults in insertion order.
func (p *Plan) Faults() []Fault { return append([]Fault(nil), p.faults...) }

// Injector realizes a plan against a clock.  It implements both
// device.FaultHook and netsim.FaultHook; install it with
// device.Manager.SetFaultHook and netsim.Link.SetFaultHook.
type Injector struct {
	clock  sched.Clock
	seed   uint64
	faults []Fault // immutable after NewInjector

	mu       sync.Mutex
	counts   map[Kind]int64
	injected [len(kindMetrics)]*obs.Counter // by kind; nil without a sink
}

// SetSink installs an observability sink.  Every injection bumps its
// fault.injected.<kind> counter.
func (in *Injector) SetSink(s obs.Sink) {
	var injected [len(kindMetrics)]*obs.Counter
	if s != nil {
		for k, name := range kindMetrics {
			injected[k] = s.Counter(name)
		}
	}
	in.mu.Lock()
	in.injected = injected
	in.mu.Unlock()
}

// bump records one injection of kind k; callers hold in.mu.
func (in *Injector) bump(k Kind) {
	in.counts[k]++
	in.injected[k].Add(1)
}

// NewInjector returns an injector evaluating the plan's windows against
// the given clock.
func NewInjector(p *Plan, clock sched.Clock) *Injector {
	if clock == nil {
		panic("fault: injector needs a clock")
	}
	return &Injector{
		clock:  clock,
		seed:   uint64(p.seed),
		faults: append([]Fault(nil), p.faults...),
		counts: make(map[Kind]int64),
	}
}

// draw is fault i's uniform sample in [0, 1) for operation a: a pure
// function of the plan seed, the fault index and a, so it is the same
// whatever other operations were drawn for before it.
func (in *Injector) draw(i int, a device.Access) float64 {
	h := sched.Mix(0, in.seed)
	h = sched.Mix(h, uint64(i))
	h = sched.Mix(h, uint64(a.Src))
	h = sched.Mix(h, uint64(a.Seq))
	return float64(h>>11) / (1 << 53)
}

// BeforeRead implements device.FaultHook.
func (in *Injector) BeforeRead(deviceID string, a device.Access, bytes int64) (avtime.WorldTime, error) {
	now := in.clock.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if f.Target != deviceID || !f.active(now) {
			continue
		}
		switch f.Kind {
		case DeviceOutage:
			in.bump(DeviceOutage)
			return 0, fmt.Errorf("fault: %q down at %v: %w", deviceID, now, device.ErrDeviceFailed)
		case TransientRead:
			if in.draw(i, a) < f.Probability {
				in.bump(TransientRead)
				return 0, fmt.Errorf("fault: %q read fault at %v: %w", deviceID, now, device.ErrTransientRead)
			}
		}
	}
	return 0, nil
}

// BeforeSwap implements device.FaultHook.
func (in *Injector) BeforeSwap(deviceID string, a device.Access) error {
	now := in.clock.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if f.Kind != DiscSwapFail || f.Target != deviceID || !f.active(now) {
			continue
		}
		if in.draw(i, a) < f.Probability {
			in.bump(DiscSwapFail)
			return fmt.Errorf("fault: %q swap to disc %d jammed at %v: %w", deviceID, a.Src, now, device.ErrTransientRead)
		}
	}
	return nil
}

// TransferFault implements netsim.FaultHook.  A partitioned link fails
// the transfer outright: nothing else is evaluated or counted for it.
func (in *Injector) TransferFault(linkID string, a device.Access, bytes int64) netsim.TransferFault {
	now := in.clock.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, f := range in.faults {
		if f.Kind == LinkPartition && f.Target == linkID && f.active(now) {
			in.bump(LinkPartition)
			return netsim.TransferFault{Down: true}
		}
	}
	var out netsim.TransferFault
	for i, f := range in.faults {
		if f.Target != linkID || !f.active(now) {
			continue
		}
		switch f.Kind {
		case LinkDegrade:
			if slow := 1 / f.Factor; slow > out.SlowFactor {
				out.SlowFactor = slow
			}
			in.bump(LinkDegrade)
		case ChunkLoss:
			if in.draw(i, a) < f.Probability {
				in.bump(ChunkLoss)
				out.Drop = true
			}
		case ChunkCorrupt:
			if in.draw(i, a) < f.Probability {
				in.bump(ChunkCorrupt)
				out.Corrupt = true
			}
		}
	}
	return out
}

// Counts returns a snapshot of injections by kind.
func (in *Injector) Counts() map[Kind]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Kind]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Total reports the total number of injections.
func (in *Injector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.counts {
		n += v
	}
	return n
}

// CountString renders the injection counts deterministically, sorted by
// kind.
func (in *Injector) CountString() string {
	counts := in.Counts()
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	s := ""
	for i, k := range kinds {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%v:%d", k, counts[k])
	}
	if s == "" {
		s = "none"
	}
	return s
}
