// Package txn provides the transactional substrate of the AV database:
// a hierarchical two-phase lock manager with multigranularity modes
// (IS/IX/S/SIX/X) and deadlock detection, a redo-only log of
// single-statement commits whose fold is the recovered catalog state,
// and a version store for media values ("the problem of version control
// has also been investigated", §2).
package txn

import (
	"errors"
	"fmt"
	"sync"

	"avdb/internal/schema"
)

// Mode is a multigranularity lock mode.
type Mode int

// The lock modes, weakest to strongest.
const (
	ModeIS Mode = iota
	ModeIX
	ModeS
	ModeSIX
	ModeX
)

var modeNames = [...]string{
	ModeIS: "IS", ModeIX: "IX", ModeS: "S", ModeSIX: "SIX", ModeX: "X",
}

// String returns the mode's conventional name.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// compatible reports whether two modes may be held simultaneously by
// different transactions.
var compatible = [5][5]bool{
	ModeIS:  {ModeIS: true, ModeIX: true, ModeS: true, ModeSIX: true},
	ModeIX:  {ModeIS: true, ModeIX: true},
	ModeS:   {ModeIS: true, ModeS: true},
	ModeSIX: {ModeIS: true},
	ModeX:   {},
}

// lub is the least upper bound of two held modes, for lock upgrades.
var lub = [5][5]Mode{
	ModeIS:  {ModeIS: ModeIS, ModeIX: ModeIX, ModeS: ModeS, ModeSIX: ModeSIX, ModeX: ModeX},
	ModeIX:  {ModeIS: ModeIX, ModeIX: ModeIX, ModeS: ModeSIX, ModeSIX: ModeSIX, ModeX: ModeX},
	ModeS:   {ModeIS: ModeS, ModeIX: ModeSIX, ModeS: ModeS, ModeSIX: ModeSIX, ModeX: ModeX},
	ModeSIX: {ModeIS: ModeSIX, ModeIX: ModeSIX, ModeS: ModeSIX, ModeSIX: ModeSIX, ModeX: ModeX},
	ModeX:   {ModeIS: ModeX, ModeIX: ModeX, ModeS: ModeX, ModeSIX: ModeX, ModeX: ModeX},
}

// ResourceKind is a level of the lock hierarchy.
type ResourceKind int

// The hierarchy: database > class > object.
const (
	ResDatabase ResourceKind = iota
	ResClass
	ResObject
)

// Resource names a lockable entity.
type Resource struct {
	Kind  ResourceKind
	Class string
	OID   schema.OID
}

// DatabaseRes is the root of the lock hierarchy.
var DatabaseRes = Resource{Kind: ResDatabase}

// ClassRes names a class-level resource.
func ClassRes(class string) Resource { return Resource{Kind: ResClass, Class: class} }

// ObjectRes names an object-level resource.
func ObjectRes(class string, oid schema.OID) Resource {
	return Resource{Kind: ResObject, Class: class, OID: oid}
}

// String formats the resource.
func (r Resource) String() string {
	switch r.Kind {
	case ResDatabase:
		return "db"
	case ResClass:
		return "class:" + r.Class
	default:
		return fmt.Sprintf("obj:%s/%v", r.Class, r.OID)
	}
}

// ErrDeadlock is returned to a transaction chosen as the deadlock victim.
var ErrDeadlock = errors.New("txn: deadlock detected")

// ErrNotActive is wrapped by every operation attempted on a transaction
// that has already committed or aborted; callers branch with errors.Is.
var ErrNotActive = errors.New("txn: transaction not active")

// lockState tracks one resource's holders.
type lockState struct {
	holders map[uint64]Mode
}

// LockManager grants multigranularity locks with blocking waits and
// wait-for-graph deadlock detection.  A transaction whose wait would
// close a cycle receives ErrDeadlock instead of waiting.
type LockManager struct {
	mu    sync.Mutex
	cond  *sync.Cond
	locks map[Resource]*lockState
	// waits[t] is the set of transactions t currently waits for.
	waits map[uint64]map[uint64]bool
}

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	lm := &LockManager{
		locks: make(map[Resource]*lockState),
		waits: make(map[uint64]map[uint64]bool),
	}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

// Acquire grants mode on res to tx, blocking while incompatible locks are
// held.  It returns ErrDeadlock if waiting would create a cycle.
// Re-acquiring upgrades the held mode.
func (lm *LockManager) Acquire(tx uint64, res Resource, mode Mode) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for {
		st, ok := lm.locks[res]
		if !ok {
			st = &lockState{holders: make(map[uint64]Mode)}
			lm.locks[res] = st
		}
		want := mode
		if held, ok := st.holders[tx]; ok {
			want = lub[held][mode]
		}
		blockers := st.blockers(tx, want)
		if len(blockers) == 0 {
			st.holders[tx] = want
			delete(lm.waits, tx)
			return nil
		}
		// Record the wait and look for a cycle through it.
		ws := make(map[uint64]bool, len(blockers))
		for _, b := range blockers {
			ws[b] = true
		}
		lm.waits[tx] = ws
		if lm.cycleFrom(tx) {
			delete(lm.waits, tx)
			return fmt.Errorf("%w: tx %d waiting for %v on %v", ErrDeadlock, tx, blockers, res)
		}
		lm.cond.Wait()
	}
}

// blockers lists the other holders whose modes conflict with want.
func (st *lockState) blockers(tx uint64, want Mode) []uint64 {
	var out []uint64
	for other, held := range st.holders {
		if other == tx {
			continue
		}
		if !compatible[want][held] {
			out = append(out, other)
		}
	}
	return out
}

// cycleFrom reports whether the wait-for graph has a cycle reachable from
// start.
func (lm *LockManager) cycleFrom(start uint64) bool {
	seen := make(map[uint64]bool)
	var stack []uint64
	for next := range lm.waits[start] {
		stack = append(stack, next)
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t == start {
			return true
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		for next := range lm.waits[t] {
			stack = append(stack, next)
		}
	}
	return false
}

// ReleaseAll drops every lock held by tx and wakes waiters.
func (lm *LockManager) ReleaseAll(tx uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for res, st := range lm.locks {
		if _, held := st.holders[tx]; held {
			delete(st.holders, tx)
			if len(st.holders) == 0 {
				delete(lm.locks, res)
			}
		}
	}
	delete(lm.waits, tx)
	lm.cond.Broadcast()
}

// Held reports the mode tx holds on res, if any.
func (lm *LockManager) Held(tx uint64, res Resource) (Mode, bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	st, ok := lm.locks[res]
	if !ok {
		return 0, false
	}
	m, ok := st.holders[tx]
	return m, ok
}

// TxState is a transaction's lifecycle state.
type TxState int

// The transaction states.
const (
	TxActive TxState = iota
	TxCommitted
	TxAborted
)

// Tx is one transaction against a Manager.
type Tx struct {
	id  uint64
	mgr *Manager

	mu    sync.Mutex
	state TxState
}

// ID returns the transaction's identifier.
func (t *Tx) ID() uint64 { return t.id }

// State reports the transaction's state.
func (t *Tx) State() TxState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

func (t *Tx) ensureActive() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != TxActive {
		return fmt.Errorf("%w: transaction %d", ErrNotActive, t.id)
	}
	return nil
}

// LockClass acquires mode on a class, taking the matching intention lock
// on the database root first.
func (t *Tx) LockClass(class string, mode Mode) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	if err := t.mgr.locks.Acquire(t.id, DatabaseRes, intention(mode)); err != nil {
		return err
	}
	return t.mgr.locks.Acquire(t.id, ClassRes(class), mode)
}

// LockObject acquires mode on an object, taking intention locks on the
// database and class first.
func (t *Tx) LockObject(class string, oid schema.OID, mode Mode) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	if err := t.mgr.locks.Acquire(t.id, DatabaseRes, intention(mode)); err != nil {
		return err
	}
	if err := t.mgr.locks.Acquire(t.id, ClassRes(class), intention(mode)); err != nil {
		return err
	}
	return t.mgr.locks.Acquire(t.id, ObjectRes(class, oid), mode)
}

// intention maps a leaf mode to the intention mode its ancestors need.
func intention(mode Mode) Mode {
	switch mode {
	case ModeS, ModeIS:
		return ModeIS
	default:
		return ModeIX
	}
}

// Commit ends the transaction successfully, releasing all locks.
func (t *Tx) Commit() error {
	t.mu.Lock()
	if t.state != TxActive {
		t.mu.Unlock()
		return fmt.Errorf("%w: transaction %d", ErrNotActive, t.id)
	}
	t.state = TxCommitted
	t.mu.Unlock()
	t.mgr.finish(t)
	return nil
}

// Abort ends the transaction unsuccessfully, releasing all locks.
// Aborting a finished transaction is a no-op.
func (t *Tx) Abort() {
	t.mu.Lock()
	if t.state != TxActive {
		t.mu.Unlock()
		return
	}
	t.state = TxAborted
	t.mu.Unlock()
	t.mgr.finish(t)
}

// Manager creates transactions over a shared lock manager.
type Manager struct {
	locks *LockManager

	mu     sync.Mutex
	nextID uint64
	active map[uint64]*Tx
}

// NewManager returns a transaction manager.
func NewManager() *Manager {
	return &Manager{locks: NewLockManager(), nextID: 1, active: make(map[uint64]*Tx)}
}

// Locks exposes the underlying lock manager.
func (m *Manager) Locks() *LockManager { return m.locks }

// Begin starts a transaction.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Tx{id: m.nextID, mgr: m}
	m.nextID++
	m.active[t.id] = t
	return t
}

// ActiveCount reports the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

func (m *Manager) finish(t *Tx) {
	m.locks.ReleaseAll(t.id)
	m.mu.Lock()
	delete(m.active, t.id)
	m.mu.Unlock()
}
