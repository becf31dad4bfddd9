// Package netsim models the network between an AV database and its
// clients: links with finite capacity, propagation latency and bounded
// jitter, and connections that reserve bandwidth on a link before data
// flows.
//
// The model carries exactly the properties §3.3 needs: connection setup
// fails when a link cannot sustain the requested rate alongside existing
// reservations ("this statement would fail if insufficient network
// bandwidth were available"), and delivery times jitter inside a bounded
// window, which is what forces the resynchronization machinery of
// composite activities.  A connection's transfer n jitters by the keyed
// draw sched.Uniform(key, n, maxJitter), the key a hash of the link seed
// and the connection's ordinal on its link: experiments are
// reproducible, a connection's delivery times do not depend on what
// other connections carry in between, and a connection holds one word
// of generator state.
package netsim

import (
	"fmt"
	"sort"
	"sync"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
	"avdb/internal/obs"
	"avdb/internal/sched"
)

// ErrBandwidth is wrapped by connection-admission failures.
var ErrBandwidth = fmt.Errorf("netsim: insufficient link bandwidth")

// ErrLinkDown is wrapped by transfers attempted across a partitioned
// link.
var ErrLinkDown = fmt.Errorf("netsim: link down")

// ErrClosed is wrapped by operations on a closed connection.
var ErrClosed = fmt.Errorf("netsim: connection closed")

// TransferFault is a fault hook's verdict on one transfer: the link may
// be partitioned (the transfer fails), running degraded (serialization
// slows by SlowFactor), or the chunk may be lost or corrupted in flight.
type TransferFault struct {
	Down       bool
	SlowFactor float64 // > 1 multiplies serialization time; <= 1 means none
	Drop       bool
	Corrupt    bool
}

// FaultHook is consulted on every transfer; a fault injector implements
// it to make the simulated network misbehave on a deterministic
// schedule.  A nil hook is a fault-free link.  a names the transfer:
// Src is the connection's id on its link, Seq its ordinal among the
// connection's carried transfers.
type FaultHook interface {
	TransferFault(linkID string, a device.Access, bytes int64) TransferFault
}

// Delivery describes how one transfer went: the world time it occupied
// and whether the payload survived the trip.
type Delivery struct {
	Time      avtime.WorldTime
	Dropped   bool // lost in flight; Time is still consumed
	Corrupted bool // delivered, but the payload is damaged
}

// Link is one network path between the database and a client site.
type Link struct {
	id        string
	capacity  media.DataRate
	latency   avtime.WorldTime
	maxJitter avtime.WorldTime
	key       uint64 // hash of the seed; keys each connection's jitter

	mu       sync.Mutex
	reserved media.DataRate
	nextConn int
	hook     FaultHook

	m linkMetrics
}

// linkMetrics holds an installed sink's net.<id>.* handles; all nil
// without one.
type linkMetrics struct {
	transfers, bytes, dropped, corrupted, down *obs.Counter
}

// NewLink returns a link with the given capacity, propagation latency and
// jitter bound.  The seed makes every connection's jitter sequence
// deterministic.
func NewLink(id string, capacity media.DataRate, latency, maxJitter avtime.WorldTime, seed int64) *Link {
	if capacity <= 0 || latency < 0 || maxJitter < 0 {
		panic(fmt.Sprintf("netsim: invalid link %q", id))
	}
	return &Link{id: id, capacity: capacity, latency: latency, maxJitter: maxJitter, key: sched.Mix(0, uint64(seed))}
}

// ID returns the link's identifier.
func (l *Link) ID() string { return l.id }

// Capacity reports the link's total bandwidth.
func (l *Link) Capacity() media.DataRate { return l.capacity }

// Latency reports the propagation latency.
func (l *Link) Latency() avtime.WorldTime { return l.latency }

// MaxJitter reports the jitter bound.
func (l *Link) MaxJitter() avtime.WorldTime { return l.maxJitter }

// SetFaultHook installs a fault hook consulted on every transfer; nil
// clears it.
func (l *Link) SetFaultHook(h FaultHook) {
	l.mu.Lock()
	l.hook = h
	l.mu.Unlock()
}

// SetSink installs an observability sink.  Transfers over the link emit
// net.<id>.transfers / bytes / dropped / corrupted / down counters; nil
// clears the sink.
func (l *Link) SetSink(s obs.Sink) {
	var m linkMetrics
	if s != nil {
		prefix := "net." + l.id + "."
		m = linkMetrics{
			transfers: s.Counter(prefix + "transfers"),
			bytes:     s.Counter(prefix + "bytes"),
			dropped:   s.Counter(prefix + "dropped"),
			corrupted: s.Counter(prefix + "corrupted"),
			down:      s.Counter(prefix + "down"),
		}
	}
	l.mu.Lock()
	l.m = m
	l.mu.Unlock()
}

// Reserved reports the bandwidth currently reserved by open connections.
func (l *Link) Reserved() media.DataRate {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reserved
}

// Connect reserves rate on the link and returns an open connection.  It
// fails when the link cannot sustain the rate alongside existing
// reservations.
func (l *Link) Connect(rate media.DataRate) (*Conn, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("netsim: connection rate must be positive, got %v", rate)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.reserved+rate > l.capacity {
		return nil, fmt.Errorf("%w: link %q: %v requested, %v of %v free",
			ErrBandwidth, l.id, rate, l.capacity-l.reserved, l.capacity)
	}
	l.reserved += rate
	id := l.nextConn
	l.nextConn++
	return &Conn{
		link: l,
		id:   id,
		rate: rate,
		key:  sched.Mix(l.key, uint64(id)),
		open: true,
	}, nil
}

// Conn is an open connection with a reserved data rate.
type Conn struct {
	link *Link
	id   int
	rate media.DataRate
	key  uint64 // keys the jitter of the connection's transfers

	mu       sync.Mutex
	open     bool
	bytes    int64 // total bytes carried
	messages int64 // total transfers
}

// Rate reports the connection's reserved rate.
func (c *Conn) Rate() media.DataRate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rate
}

// TransferChunk accounts for moving the given bytes and reports the full
// delivery outcome, including in-flight loss and corruption injected by
// the link's fault hook.  A partitioned link fails with ErrLinkDown.
func (c *Conn) TransferChunk(bytes int64) (Delivery, error) {
	if bytes < 0 {
		return Delivery{}, fmt.Errorf("netsim: negative transfer %d", bytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.open {
		return Delivery{}, fmt.Errorf("%w: transfer on closed connection", ErrClosed)
	}
	c.link.mu.Lock()
	hook := c.link.hook
	m := c.link.m
	c.link.mu.Unlock()
	var f TransferFault
	if hook != nil {
		f = hook.TransferFault(c.link.id, device.Access{Src: int64(c.id), Seq: c.messages}, bytes)
	}
	if f.Down {
		m.down.Add(1)
		return Delivery{}, fmt.Errorf("%w: link %q", ErrLinkDown, c.link.id)
	}
	seq := uint64(c.messages)
	c.bytes += bytes
	c.messages++
	m.transfers.Add(1)
	m.bytes.Add(bytes)
	if f.Drop {
		m.dropped.Add(1)
	}
	if f.Corrupt {
		m.corrupted.Add(1)
	}
	ser := avtime.WorldTime(bytes * int64(avtime.Second) / int64(c.rate))
	if f.SlowFactor > 1 {
		ser = avtime.WorldTime(float64(ser) * f.SlowFactor)
	}
	t := c.link.latency + ser
	if c.link.maxJitter > 0 {
		t += sched.Uniform(c.key, seq, c.link.maxJitter)
	}
	return Delivery{Time: t, Dropped: f.Drop, Corrupted: f.Corrupt}, nil
}

// Renegotiate changes the connection's reserved rate in place — the
// network half of a quality renegotiation.  Lowering the rate always
// succeeds and returns bandwidth to the link; raising it fails when the
// link cannot sustain the increase alongside existing reservations.
func (c *Conn) Renegotiate(rate media.DataRate) error {
	if rate <= 0 {
		return fmt.Errorf("netsim: connection rate must be positive, got %v", rate)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.open {
		return fmt.Errorf("%w: renegotiate on closed connection", ErrClosed)
	}
	delta := rate - c.rate
	c.link.mu.Lock()
	if delta > 0 && c.link.reserved+delta > c.link.capacity {
		free := c.link.capacity - c.link.reserved
		c.link.mu.Unlock()
		return fmt.Errorf("%w: link %q: %v more requested, %v free", ErrBandwidth, c.link.id, delta, free)
	}
	c.link.reserved += delta
	if c.link.reserved < 0 {
		c.link.reserved = 0
	}
	c.link.mu.Unlock()
	c.rate = rate
	return nil
}

// BytesCarried reports the total bytes moved over the connection.
func (c *Conn) BytesCarried() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Close releases the connection's bandwidth.  Closing twice is a no-op.
func (c *Conn) Close() {
	c.mu.Lock()
	if !c.open {
		c.mu.Unlock()
		return
	}
	c.open = false
	rate := c.rate
	c.mu.Unlock()
	c.link.mu.Lock()
	c.link.reserved -= rate
	if c.link.reserved < 0 {
		c.link.reserved = 0
	}
	c.link.mu.Unlock()
}

// Network is a registry of links.
type Network struct {
	mu    sync.Mutex
	links map[string]*Link
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{links: make(map[string]*Link)}
}

// AddLink registers a link; duplicate IDs are an error.
func (n *Network) AddLink(l *Link) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.links[l.id]; dup {
		return fmt.Errorf("netsim: duplicate link %q", l.id)
	}
	n.links[l.id] = l
	return nil
}

// Link returns the link with the given ID.
func (n *Network) Link(id string) (*Link, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[id]
	return l, ok
}

// Links returns all link IDs, sorted.
func (n *Network) Links() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]string, 0, len(n.links))
	for id := range n.links {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
