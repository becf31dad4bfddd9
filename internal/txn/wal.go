// Package txn holds the catalog's durable substrate: a redo-only log of
// single-statement commits whose fold is the recovered catalog state,
// and a version store for media values ("the problem of version control
// has also been investigated", §2).  Core orders each statement with one
// lock per class, not here: see DESIGN §17.
package txn

import "sync"

// Write is one key's new image in a statement.  A nil Val deletes the
// key; an empty value is a value.
type Write struct {
	Key string
	Val []byte
}

// Log is a redo-only log of single-statement commits.  In this simulated
// platform it is the stable storage: it survives a crash, and recovery
// is a fold of it (Live).  The zero Log is empty and ready to use.
type Log struct {
	mu     sync.Mutex
	writes []Write // every statement's writes, in commit order
	stmts  int
}

// Commit appends one statement, whole, under the log's lock, so a
// reader of the log — recovery after a crash included — sees all of its
// writes or none.  It copies each value once; that image is then
// immutable.
func (l *Log) Commit(ws ...Write) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, w := range ws {
		if w.Val != nil {
			w.Val = append([]byte{}, w.Val...)
		}
		l.writes = append(l.writes, w)
	}
	l.stmts++
}

// Len reports the number of statements committed.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stmts
}

// Live folds the log forward into the last image of every key, leaving
// out deleted keys.  The values are the log's own images: a caller may
// keep them but must never write to them.
func (l *Log) Live() map[string][]byte {
	l.mu.Lock()
	// Entries are never rewritten once appended, so the prefix committed
	// so far can be read after the lock is released.
	ws := l.writes
	l.mu.Unlock()
	live := make(map[string][]byte, len(ws))
	for _, w := range ws {
		if w.Val == nil {
			delete(live, w.Key)
		} else {
			live[w.Key] = w.Val
		}
	}
	return live
}
