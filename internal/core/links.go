package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"avdb/internal/schema"
	"avdb/internal/txn"
)

// Link is a hypermedia link between two stored objects — Scenario I's
// interface "which links, for example, the documents describing a project
// to the video of a presentation by the project leader."
type Link struct {
	From, To schema.OID
	Label    string
}

// String formats the link.
func (l Link) String() string {
	return fmt.Sprintf("%v -[%s]-> %v", l.From, l.Label, l.To)
}

// linkStore indexes links in both directions.
type linkStore struct {
	mu      sync.RWMutex
	forward map[schema.OID][]Link
	back    map[schema.OID][]Link
}

func newLinkStore() *linkStore {
	return &linkStore{forward: make(map[schema.OID][]Link), back: make(map[schema.OID][]Link)}
}

// insert adds l, which the store must not hold yet.  The caller holds
// ls.mu or owns ls outright.
func (ls *linkStore) insert(l Link) {
	ls.forward[l.From] = append(ls.forward[l.From], l)
	ls.back[l.To] = append(ls.back[l.To], l)
}

// add inserts l, unless the store holds it already, and commits its key
// to log in the same critical section: the log orders a link's adds and
// removes as memory does.
func (ls *linkStore) add(l Link, log *txn.Log) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, e := range ls.forward[l.From] {
		if e == l {
			return
		}
	}
	ls.insert(l)
	log.Commit(txn.Write{Key: linkKey(l), Val: []byte{1}})
}

// remove deletes l and commits its key's deletion to log under the same
// lock, reporting whether the store held l.
func (ls *linkStore) remove(l Link, log *txn.Log) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	removed := false
	ls.forward[l.From], removed = drop(ls.forward[l.From], l)
	if removed {
		ls.back[l.To], _ = drop(ls.back[l.To], l)
		log.Commit(txn.Write{Key: linkKey(l)})
	}
	return removed
}

func drop(s []Link, l Link) ([]Link, bool) {
	for i, e := range s {
		if e == l {
			return append(s[:i], s[i+1:]...), true
		}
	}
	return s, false
}

func (ls *linkStore) from(oid schema.OID) []Link {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	out := append([]Link(nil), ls.forward[oid]...)
	sortLinks(out)
	return out
}

func (ls *linkStore) to(oid schema.OID) []Link {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	out := append([]Link(nil), ls.back[oid]...)
	sortLinks(out)
	return out
}

func sortLinks(ls []Link) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].From != ls[j].From {
			return ls[i].From < ls[j].From
		}
		if ls[i].To != ls[j].To {
			return ls[i].To < ls[j].To
		}
		return ls[i].Label < ls[j].Label
	})
}

// AddLink records a durable hypermedia link between two live objects.
// Adding the same link twice is a no-op.
func (db *Database) AddLink(from, to schema.OID, label string) error {
	if label == "" || strings.Contains(label, "/") {
		return fmt.Errorf("core: link label must be non-empty and slash-free, got %q", label)
	}
	if _, ok := db.objects.Get(from); !ok {
		return fmt.Errorf("%w: %v", ErrNoObject, from)
	}
	if _, ok := db.objects.Get(to); !ok {
		return fmt.Errorf("%w: %v", ErrNoObject, to)
	}
	db.links.add(Link{From: from, To: to, Label: label}, db.log)
	return nil
}

// RemoveLink deletes a link; removing a missing link is an error.
func (db *Database) RemoveLink(from, to schema.OID, label string) error {
	l := Link{From: from, To: to, Label: label}
	if !db.links.remove(l, db.log) {
		return fmt.Errorf("core: no link %v", l)
	}
	return nil
}

// Links returns the outgoing links of an object, sorted.
func (db *Database) Links(from schema.OID) []Link { return db.links.from(from) }

// Backlinks returns the links pointing at an object, sorted.
func (db *Database) Backlinks(to schema.OID) []Link { return db.links.to(to) }

func linkKey(l Link) string {
	return fmt.Sprintf(linkPrefix+"%d/%d/%s", uint64(l.From), uint64(l.To), l.Label)
}

// parseLinkKey is linkKey's inverse, for recovery.
func parseLinkKey(key string) (Link, error) {
	from, rest, err := cutOID(strings.TrimPrefix(key, linkPrefix))
	if err != nil {
		return Link{}, err
	}
	to, label, err := cutOID(rest)
	if err != nil {
		return Link{}, err
	}
	return Link{From: from, To: to, Label: label}, nil
}
