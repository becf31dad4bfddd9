// Package device models the special-purpose hardware an AV database
// platform controls (§3.3 "database platform"): storage devices (magnetic
// disks, an analog videodisc jukebox), converters (ADC/DAC), signal
// processors, framebuffers and video-effects processors.
//
// Devices expose the two properties the paper's design arguments rest on:
// bounded bandwidth (shared devices admit reservations up to a budget and
// refuse beyond it) and exclusivity (some devices serve one client at a
// time and must be acquired).  Timing is modeled, not incurred: a device
// reports how long an operation takes in world time and the scheduler
// advances its virtual clock accordingly.
package device

import (
	"fmt"
	"sync"
	"sync/atomic"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// Kind classifies a device.
type Kind int

// The device kinds of the platform.
const (
	KindDisk Kind = iota
	KindJukebox
	KindFramebuffer
	KindADC
	KindDAC
	KindDSP
	KindEffects
)

var kindNames = [...]string{
	KindDisk:        "disk",
	KindJukebox:     "jukebox",
	KindFramebuffer: "framebuffer",
	KindADC:         "adc",
	KindDAC:         "dac",
	KindDSP:         "dsp",
	KindEffects:     "effects-processor",
}

// String returns the kind's name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Device is a piece of platform hardware.
type Device interface {
	// ID returns the device's unique identifier.
	ID() string
	// DeviceKind reports what the device is.
	DeviceKind() Kind
	// Exclusive reports whether the device serves one client at a time.
	Exclusive() bool
}

// ErrBandwidth is wrapped by bandwidth-reservation failures.
var ErrBandwidth = fmt.Errorf("device: insufficient bandwidth")

// ErrCapacity is wrapped by space-allocation failures.
var ErrCapacity = fmt.Errorf("device: insufficient capacity")

// ErrNoDevice is wrapped by lookups of unknown devices or discs.
var ErrNoDevice = fmt.Errorf("device: no such device")

// ErrDeviceFailed is wrapped by reads against a device that is down — a
// hard fault that retrying within the outage cannot fix.
var ErrDeviceFailed = fmt.Errorf("device: device failed")

// ErrTransientRead is wrapped by reads that failed transiently (a bad
// sector, a dropped bus transaction, a disc-swap misload).  Transient
// faults are the retryable class: a bounded retry with backoff is the
// prescribed recovery.
var ErrTransientRead = fmt.Errorf("device: transient read fault")

// Access names one faultable operation independently of when it runs:
// Src is the requester (a stream, a connection, a disc) and Seq that
// requester's own count of such operations.  A fault hook keys its
// probabilistic decisions on it, so they do not depend on the order in
// which concurrent requesters reach the device.
type Access struct {
	Src, Seq int64
}

// FaultHook is consulted on a device's timed operations; a fault
// injector implements it to make simulated hardware misbehave on a
// deterministic schedule.  A nil hook is a fault-free device.
type FaultHook interface {
	// BeforeRead runs before the read a of bytes from the device.  It
	// returns extra world time the fault costs (charged to the read) and
	// an error to inject: one wrapping ErrTransientRead for a retryable
	// fault, or ErrDeviceFailed for an outage.
	BeforeRead(deviceID string, a Access, bytes int64) (avtime.WorldTime, error)
	// BeforeSwap runs before a jukebox disc swap and may fail it; a.Src
	// is the disc being loaded.
	BeforeSwap(deviceID string, a Access) error
}

// Faultable is satisfied by devices that accept a fault hook and expose
// the pre-read check; the storage layer uses it to price and classify
// faulted reads.
type Faultable interface {
	SetFaultHook(FaultHook)
	CheckRead(a Access, bytes int64) (avtime.WorldTime, error)
}

// bwAccount is a reservable bandwidth budget shared by disks and the
// jukebox.
type bwAccount struct {
	mu       sync.Mutex
	total    media.DataRate
	reserved media.DataRate
}

func (b *bwAccount) reserve(r media.DataRate) error {
	if r < 0 {
		return fmt.Errorf("device: negative bandwidth reservation %v", r)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.reserved+r > b.total {
		return fmt.Errorf("%w: %v requested, %v of %v free", ErrBandwidth, r, b.total-b.reserved, b.total)
	}
	b.reserved += r
	return nil
}

func (b *bwAccount) release(r media.DataRate) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reserved -= r
	if b.reserved < 0 {
		b.reserved = 0
	}
}

func (b *bwAccount) free() media.DataRate {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total - b.reserved
}

func (b *bwAccount) reservedNow() media.DataRate {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reserved
}

// Disk is a magnetic disk: a capacity, a sustained transfer bandwidth and
// an average positioning (seek) time.  Bandwidth reservations implement
// the paper's resource pre-allocation: a stream reserves its data rate
// before flowing and competing reservations fail once the disk is fully
// subscribed.
type Disk struct {
	id       string
	capacity int64
	seek     avtime.WorldTime
	bw       bwAccount

	// geom and hook are read on the scheduler's hot path (a positioned
	// seek per batch run, a fault check per chunk), so they live behind
	// atomics instead of mu: SeekBetween/TrackOf/CheckRead stay
	// lock-free while SetGeometry/SetFaultHook swap whole values.
	geom atomic.Pointer[diskGeom] // nil = flat seek model
	hook atomic.Pointer[FaultHook]

	mu   sync.Mutex
	used int64
}

// diskGeom is the positional model installed by SetGeometry.
type diskGeom struct {
	tracks int              // >1 enables the positional seek model
	settle avtime.WorldTime // cost of the shortest positioned seek
}

// NewDisk returns a disk with the given geometry.
func NewDisk(id string, capacity int64, bandwidth media.DataRate, seek avtime.WorldTime) *Disk {
	if capacity <= 0 || bandwidth <= 0 || seek < 0 {
		panic(fmt.Sprintf("device: invalid disk %q: cap=%d bw=%v seek=%v", id, capacity, bandwidth, seek))
	}
	d := &Disk{id: id, capacity: capacity, seek: seek}
	d.bw.total = bandwidth
	return d
}

// ID implements Device.
func (d *Disk) ID() string { return d.id }

// DeviceKind implements Device.
func (d *Disk) DeviceKind() Kind { return KindDisk }

// Exclusive implements Device: disks are shared under bandwidth control.
func (d *Disk) Exclusive() bool { return false }

// Capacity reports the disk's total capacity in bytes.
func (d *Disk) Capacity() int64 { return d.capacity }

// Used reports the bytes currently allocated.
func (d *Disk) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Allocate accounts for bytes of new data, failing when the disk is full.
func (d *Disk) Allocate(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("device: negative allocation %d", bytes)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+bytes > d.capacity {
		return fmt.Errorf("%w: disk %q: %d requested, %d free", ErrCapacity, d.id, bytes, d.capacity-d.used)
	}
	d.used += bytes
	return nil
}

// Free returns bytes to the disk.
func (d *Disk) Free(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.used -= bytes
	if d.used < 0 {
		d.used = 0
	}
}

// TotalBandwidth reports the disk's sustained transfer rate.
func (d *Disk) TotalBandwidth() media.DataRate { return d.bw.total }

// FreeBandwidth reports the unreserved bandwidth.
func (d *Disk) FreeBandwidth() media.DataRate { return d.bw.free() }

// ReservedBandwidth reports the bandwidth currently reserved.
func (d *Disk) ReservedBandwidth() media.DataRate { return d.bw.reservedNow() }

// Reserve pre-allocates bandwidth for a stream, failing when the disk
// cannot sustain it alongside existing reservations.
func (d *Disk) Reserve(r media.DataRate) error { return d.bw.reserve(r) }

// Release returns reserved bandwidth.
func (d *Disk) Release(r media.DataRate) { d.bw.release(r) }

// TransferTime reports the world time needed to move the given bytes with
// the given number of positioning operations.
func (d *Disk) TransferTime(bytes int64, seeks int) avtime.WorldTime {
	if bytes < 0 {
		bytes = 0
	}
	if seeks < 0 {
		seeks = 0
	}
	xfer := avtime.WorldTime(bytes * int64(avtime.Second) / int64(d.bw.total))
	return avtime.WorldTime(seeks)*d.seek + xfer
}

// SeekTime reports one average positioning time.
func (d *Disk) SeekTime() avtime.WorldTime { return d.seek }

// SetGeometry gives the disk a positional model: the capacity is divided
// into tracks and a seek between two tracks costs settle plus a
// distance-proportional component that reaches the disk's full seek time
// at maximum span.  tracks <= 1 restores the flat model, under which
// SeekBetween always reports the average seek — the degenerate
// configuration every disk starts in, so existing cost accounting is
// unchanged until a geometry is installed.  settle must lie in
// [0, seek].
func (d *Disk) SetGeometry(tracks int, settle avtime.WorldTime) error {
	if settle < 0 || settle > d.seek {
		return fmt.Errorf("device: disk %q settle %v outside [0, %v]", d.id, settle, d.seek)
	}
	if tracks < 1 {
		tracks = 1
	}
	d.geom.Store(&diskGeom{tracks: tracks, settle: settle})
	return nil
}

// Tracks reports the number of tracks in the positional model; 1 when
// the disk uses the flat seek model.
func (d *Disk) Tracks() int {
	g := d.geom.Load()
	if g == nil || g.tracks < 1 {
		return 1
	}
	return g.tracks
}

// TrackOf maps a byte offset to the track holding it.  Offsets are
// clamped into the disk, so callers may pass allocation-relative
// positions without range checks.
func (d *Disk) TrackOf(offset int64) int {
	tracks := int64(d.Tracks())
	if tracks <= 1 || offset <= 0 {
		return 0
	}
	if offset >= d.capacity {
		offset = d.capacity - 1
	}
	per := (d.capacity + tracks - 1) / tracks
	return int(offset / per)
}

// SeekBetween reports the positioning cost of moving the head from one
// track to another.  Under the flat model (tracks <= 1) it is the
// average seek regardless of arguments; under a geometry, staying on the
// same track is free and the cost grows linearly with distance from
// settle up to the full average seek across the whole platter.
func (d *Disk) SeekBetween(from, to int) avtime.WorldTime {
	g := d.geom.Load()
	if g == nil || g.tracks <= 1 {
		return d.seek
	}
	tracks, settle := g.tracks, g.settle
	if from == to {
		return 0
	}
	dist := int64(from - to)
	if dist < 0 {
		dist = -dist
	}
	span := int64(tracks - 1)
	if dist > span {
		dist = span
	}
	return settle + avtime.WorldTime(int64(d.seek-settle)*dist/span)
}

// SetFaultHook implements Faultable.
func (d *Disk) SetFaultHook(h FaultHook) {
	d.hook.Store(&h)
}

// CheckRead implements Faultable: it consults the fault hook before the
// read a of bytes, returning any extra latency and injected error.
func (d *Disk) CheckRead(a Access, bytes int64) (avtime.WorldTime, error) {
	p := d.hook.Load()
	if p == nil || *p == nil {
		return 0, nil
	}
	return (*p).BeforeRead(d.id, a, bytes)
}

// Jukebox is an analog videodisc jukebox: several discs, of which one
// sits in the player at a time; switching discs costs a swap latency.
// "An analog videodisc jukebox provides a video storage capacity
// difficult to achieve using magnetic disks" (§3.3) — here it is the
// bulk (tertiary) tier for LV-encoded values.
type Jukebox struct {
	id      string
	perDisc int64
	swap    avtime.WorldTime
	bw      bwAccount

	mu        sync.Mutex
	used      []int64
	current   int   // the disc in the player
	swaps     int64 // completed disc swaps
	swapTries int64 // swap attempts, jammed ones included; keys the fault hook
	hook      FaultHook
}

// NewJukebox returns a jukebox with the given number of discs, disc 0 in
// the player.
func NewJukebox(id string, discs int, perDiscCapacity int64, bandwidth media.DataRate, swap avtime.WorldTime) *Jukebox {
	if discs <= 0 || perDiscCapacity <= 0 || bandwidth <= 0 || swap < 0 {
		panic(fmt.Sprintf("device: invalid jukebox %q", id))
	}
	j := &Jukebox{id: id, perDisc: perDiscCapacity, swap: swap, used: make([]int64, discs)}
	j.bw.total = bandwidth
	return j
}

// ID implements Device.
func (j *Jukebox) ID() string { return j.id }

// DeviceKind implements Device.
func (j *Jukebox) DeviceKind() Kind { return KindJukebox }

// Exclusive implements Device: the single reading head serializes access,
// so the jukebox is acquired exclusively.
func (j *Jukebox) Exclusive() bool { return true }

// DiscLoaded reports whether the disc is in the player, so a read of it
// needs no swap.
func (j *Jukebox) DiscLoaded(disc int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.current == disc
}

// Swaps reports the number of completed disc swaps.
func (j *Jukebox) Swaps() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.swaps
}

// Allocate accounts for bytes on the given disc.
func (j *Jukebox) Allocate(disc int, bytes int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if disc < 0 || disc >= len(j.used) {
		return fmt.Errorf("%w: jukebox %q has no disc %d", ErrNoDevice, j.id, disc)
	}
	if bytes < 0 {
		return fmt.Errorf("device: negative allocation %d", bytes)
	}
	if j.used[disc]+bytes > j.perDisc {
		return fmt.Errorf("%w: disc %d: %d requested, %d free", ErrCapacity, disc, bytes, j.perDisc-j.used[disc])
	}
	j.used[disc] += bytes
	return nil
}

// Free returns bytes on the given disc.
func (j *Jukebox) Free(disc int, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if disc < 0 || disc >= len(j.used) {
		return
	}
	j.used[disc] -= bytes
	if j.used[disc] < 0 {
		j.used[disc] = 0
	}
}

// AccessTime reports the world time to read bytes from the given disc,
// including a swap if it is not in the player, and loads it.
func (j *Jukebox) AccessTime(disc int, bytes int64) (avtime.WorldTime, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if disc < 0 || disc >= len(j.used) {
		return 0, fmt.Errorf("%w: jukebox %q has no disc %d", ErrNoDevice, j.id, disc)
	}
	var t avtime.WorldTime
	if disc != j.current {
		try := Access{Src: int64(disc), Seq: j.swapTries}
		j.swapTries++
		if j.hook != nil {
			if err := j.hook.BeforeSwap(j.id, try); err != nil {
				// The swap mechanism jammed: the player keeps its disc
				// and the failed attempt still costs a swap latency.
				return j.swap, err
			}
		}
		t += j.swap
		j.swaps++
		j.current = disc
	}
	if bytes > 0 {
		t += avtime.WorldTime(bytes * int64(avtime.Second) / int64(j.bw.total))
	}
	return t, nil
}

// Reserve pre-allocates read bandwidth.
func (j *Jukebox) Reserve(r media.DataRate) error { return j.bw.reserve(r) }

// Release returns reserved bandwidth.
func (j *Jukebox) Release(r media.DataRate) { j.bw.release(r) }

// SetFaultHook implements Faultable.
func (j *Jukebox) SetFaultHook(h FaultHook) {
	j.mu.Lock()
	j.hook = h
	j.mu.Unlock()
}

// CheckRead implements Faultable.
func (j *Jukebox) CheckRead(a Access, bytes int64) (avtime.WorldTime, error) {
	j.mu.Lock()
	h := j.hook
	j.mu.Unlock()
	if h == nil {
		return 0, nil
	}
	return h.BeforeRead(j.id, a, bytes)
}

// Unit is a non-storage device: framebuffer, ADC, DAC, DSP or video
// effects processor.  Exclusive units (converters, framebuffers, effects
// processors — the paper's expensive shared boxes) serve one owner at a
// time via the Manager.
type Unit struct {
	id        string
	kind      Kind
	exclusive bool
}

// NewUnit returns a non-storage device.
func NewUnit(id string, kind Kind, exclusive bool) *Unit {
	if kind == KindDisk || kind == KindJukebox {
		panic(fmt.Sprintf("device: unit %q with storage kind %v", id, kind))
	}
	return &Unit{id: id, kind: kind, exclusive: exclusive}
}

// ID implements Device.
func (u *Unit) ID() string { return u.id }

// DeviceKind implements Device.
func (u *Unit) DeviceKind() Kind { return u.kind }

// Exclusive implements Device.
func (u *Unit) Exclusive() bool { return u.exclusive }
