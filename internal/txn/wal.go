package txn

import (
	"fmt"
	"sort"
	"sync"
)

// RecordType classifies log records.
type RecordType int

// The WAL record types.  RecCLR is a compensation log record: the logged
// image of one undo action performed by an abort.  CLRs are redo-only —
// replaying them re-performs the rollback, so recovery never undoes an
// aborted transaction a second time.
const (
	RecBegin RecordType = iota
	RecUpdate
	RecCommit
	RecAbort
	RecCLR
)

var recordNames = [...]string{
	RecBegin: "BEGIN", RecUpdate: "UPDATE", RecCommit: "COMMIT", RecAbort: "ABORT",
	RecCLR: "CLR",
}

// String returns the record type's name.
func (t RecordType) String() string {
	if t < 0 || int(t) >= len(recordNames) {
		return fmt.Sprintf("RecordType(%d)", int(t))
	}
	return recordNames[t]
}

// Record is one WAL entry.  Update records carry physical before/after
// images, enabling both redo and undo.
type Record struct {
	LSN    uint64
	Type   RecordType
	TxID   uint64
	Key    string
	Before []byte // nil means the key did not exist
	After  []byte // nil means the key is deleted
}

// WAL is the stable log.  In this simulated platform "stable" means it
// survives Crash(); the volatile store does not.
type WAL struct {
	mu      sync.Mutex
	records []Record
	nextLSN uint64
}

// NewWAL returns an empty log.
func NewWAL() *WAL {
	return &WAL{nextLSN: 1}
}

// Append force-writes a record and returns its LSN.
func (w *WAL) Append(r Record) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(r)
}

// appendLocked is Append for a caller that holds w.mu.
func (w *WAL) appendLocked(r Record) uint64 {
	r.LSN = w.nextLSN
	w.nextLSN++
	w.records = append(w.records, r)
	return r.LSN
}

// Records returns a copy of the log.
func (w *WAL) Records() []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Record(nil), w.records...)
}

// Len reports the number of records.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.records)
}

// KV is a recoverable key-value store: mutations go through transactions,
// every update is logged before it is applied (write-ahead rule), and
// after a crash Recover rebuilds exactly the committed state.
//
// A value image is immutable from the moment Put has copied it in: the
// log's before/after images and the volatile store share it by
// reference, and Get copies it out.  Every method takes kv.mu and then
// the log's lock, in that order.
type KV struct {
	wal *WAL

	mu  sync.Mutex
	mem map[string][]byte
	// inTx tracks which transactions have logged a Begin.
	inTx map[uint64]bool
}

// NewKV returns an empty recoverable store with its own log.
func NewKV() *KV {
	return &KV{wal: NewWAL(), mem: make(map[string][]byte), inTx: make(map[uint64]bool)}
}

// WAL exposes the store's log.
func (kv *KV) WAL() *WAL { return kv.wal }

// Get reads a key from the volatile store.
func (kv *KV) Get(key string) ([]byte, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	v, ok := kv.mem[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Len reports the number of live keys.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.mem)
}

// Range calls fn for every live key, in no particular order, until fn
// returns false.  It runs under the store's lock and hands out the
// store's own image of each value: fn must not call back into kv, and
// may keep val but must never write to it.
func (kv *KV) Range(fn func(key string, val []byte) bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	for k, v := range kv.mem {
		if !fn(k, v) {
			return
		}
	}
}

// install makes img the value of key; a nil image deletes the key.
// The caller holds kv.mu.
func (kv *KV) install(key string, img []byte) {
	if img == nil {
		delete(kv.mem, key)
	} else {
		kv.mem[key] = img
	}
}

// undo rolls one update record back: it logs the compensation record and
// installs the before-image.  The caller holds kv.mu and the log's lock.
func (kv *KV) undo(r Record) {
	kv.wal.appendLocked(Record{Type: RecCLR, TxID: r.TxID, Key: r.Key, Before: kv.mem[r.Key], After: r.Before})
	kv.install(r.Key, r.Before)
}

// Put writes key=val under tx.  Passing val nil deletes the key.
func (kv *KV) Put(tx *Tx, key string, val []byte) error {
	if err := tx.ensureActive(); err != nil {
		return err
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.wal.mu.Lock()
	defer kv.wal.mu.Unlock()
	if !kv.inTx[tx.ID()] {
		kv.wal.appendLocked(Record{Type: RecBegin, TxID: tx.ID()})
		kv.inTx[tx.ID()] = true
	}
	var after []byte // nil only for a delete: an empty value is a value
	if val != nil {
		after = append([]byte{}, val...)
	}
	kv.wal.appendLocked(Record{Type: RecUpdate, TxID: tx.ID(), Key: key, Before: kv.mem[key], After: after})
	kv.install(key, after)
	return nil
}

// Commit logs the transaction's commit.  The caller still calls
// tx.Commit to release locks.
func (kv *KV) Commit(tx *Tx) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.inTx[tx.ID()] {
		kv.wal.Append(Record{Type: RecCommit, TxID: tx.ID()})
		delete(kv.inTx, tx.ID())
	}
}

// Abort undoes the transaction's updates from the log (newest first, back
// to its begin record), logging a compensation record for every undo
// action, and then logs the abort.
func (kv *KV) Abort(tx *Tx) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if !kv.inTx[tx.ID()] {
		return
	}
	kv.wal.mu.Lock()
	defer kv.wal.mu.Unlock()
	for i := len(kv.wal.records) - 1; i >= 0; i-- {
		// By value: the appends below may move the log.
		r := kv.wal.records[i]
		if r.TxID != tx.ID() {
			continue
		}
		if r.Type == RecBegin {
			break
		}
		if r.Type != RecUpdate {
			continue
		}
		kv.undo(r)
	}
	kv.wal.appendLocked(Record{Type: RecAbort, TxID: tx.ID()})
	delete(kv.inTx, tx.ID())
}

// Crash discards the volatile store, simulating a failure.  The log
// survives.
func (kv *KV) Crash() {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.mem = make(map[string][]byte)
	kv.inTx = make(map[uint64]bool)
}

// Recover rebuilds the store from the log, walked in place: redo every
// update in LSN order, then undo the updates of the losers, newest first
// (ARIES analysis/redo/undo over physical images).  A loser is a
// transaction with an update and neither a commit nor an abort record —
// in flight at the crash; the analysis runs inside the redo pass, and
// with no loser, the usual case, there is no undo pass.  The undo is
// logged like any abort, compensation records and then the abort, so a
// loser is rolled back once: a later recovery repeats that history
// instead of undoing it again over whatever has committed since.
func (kv *KV) Recover() {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.wal.mu.Lock()
	defer kv.wal.mu.Unlock()
	recs := kv.wal.records // the appends below go past its end

	kv.mem = make(map[string][]byte)
	kv.inTx = make(map[uint64]bool)
	losers := make(map[uint64]struct{})
	// Redo phase: repeat history, including compensation records — their
	// replay re-performs the rollbacks aborts already did.
	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case RecUpdate:
			losers[r.TxID] = struct{}{}
			kv.install(r.Key, r.After)
		case RecCLR:
			kv.install(r.Key, r.After)
		case RecCommit, RecAbort:
			delete(losers, r.TxID)
		}
	}
	if len(losers) == 0 {
		return
	}
	// Undo phase.  Aborted transactions are already compensated by
	// their CLRs.
	for i := len(recs) - 1; i >= 0; i-- {
		if _, lost := losers[recs[i].TxID]; lost && recs[i].Type == RecUpdate {
			kv.undo(recs[i])
		}
	}
	ids := make([]uint64, 0, len(losers))
	for id := range losers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		kv.wal.appendLocked(Record{Type: RecAbort, TxID: id})
	}
}
