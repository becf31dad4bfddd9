package device

import (
	"fmt"
	"sort"
	"sync"

	"avdb/internal/obs"
)

// ErrHeld is wrapped by acquisition failures on exclusive devices.
var ErrHeld = fmt.Errorf("device: exclusive device held")

// Manager is the platform's device registry and arbiter.  Exclusive
// devices — converters, framebuffers, effects processors, the jukebox —
// must be acquired before use and are handed to one owner at a time;
// acquiring a held device fails immediately (the client decides whether to
// retry, per the paper's client-visible scheduling).
type Manager struct {
	mu      sync.Mutex
	devices map[string]Device
	holders map[string]string // device id -> owner

	// An installed sink's handles; nil without one.
	acquired, denied, released *obs.Counter
}

// SetSink installs an observability sink.  Exclusive-device arbitration
// emits device.acquired / acquire_denied / released counters.
func (m *Manager) SetSink(s obs.Sink) {
	var acquired, denied, released *obs.Counter
	if s != nil {
		acquired = s.Counter("device.acquired")
		denied = s.Counter("device.acquire_denied")
		released = s.Counter("device.released")
	}
	m.mu.Lock()
	m.acquired, m.denied, m.released = acquired, denied, released
	m.mu.Unlock()
}

// NewManager returns an empty device manager.
func NewManager() *Manager {
	return &Manager{devices: make(map[string]Device), holders: make(map[string]string)}
}

// Register adds a device; duplicate IDs are an error.
func (m *Manager) Register(d Device) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.devices[d.ID()]; dup {
		return fmt.Errorf("device: duplicate registration %q", d.ID())
	}
	m.devices[d.ID()] = d
	return nil
}

// Get returns the device with the given ID.
func (m *Manager) Get(id string) (Device, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.devices[id]
	return d, ok
}

// List returns all device IDs, sorted.
func (m *Manager) List() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.devices))
	for id := range m.devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ListKind returns the IDs of all devices of the given kind, sorted.
func (m *Manager) ListKind(k Kind) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []string
	for id, d := range m.devices {
		if d.DeviceKind() == k {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Acquire grants owner the use of an exclusive device.  For shared
// devices it is a no-op succeeding immediately.  Acquiring a device the
// owner already holds succeeds (acquisition is idempotent per owner).
func (m *Manager) Acquire(id, owner string) error {
	if owner == "" {
		return fmt.Errorf("device: empty owner")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.devices[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDevice, id)
	}
	if !d.Exclusive() {
		return nil
	}
	if h, held := m.holders[id]; held && h != owner {
		m.denied.Add(1)
		return fmt.Errorf("%w: %q held by %q", ErrHeld, id, h)
	}
	m.holders[id] = owner
	m.acquired.Add(1)
	return nil
}

// Holder reports which owner holds an exclusive device, if any.
func (m *Manager) Holder(id string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.holders[id]
	return h, ok
}

// SetFaultHook installs a fault hook on every registered device that
// accepts one (disks and jukeboxes); units have no timed read path to
// fault.  Pass nil to clear.
func (m *Manager) SetFaultHook(h FaultHook) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.devices {
		if f, ok := d.(Faultable); ok {
			f.SetFaultHook(h)
		}
	}
}

// ReleaseAll returns every device held by owner, for session teardown.
func (m *Manager) ReleaseAll(owner string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, h := range m.holders {
		if h == owner {
			delete(m.holders, id)
			m.released.Add(1)
		}
	}
}
