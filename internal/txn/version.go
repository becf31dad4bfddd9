package txn

import (
	"fmt"
	"sync"

	"avdb/internal/media"
	"avdb/internal/schema"
)

// Version is one entry in a media attribute's version chain.
type Version struct {
	Num   int // 1-based, ascending
	Value media.Value
	Note  string
}

// versionKey identifies a versioned attribute.
type versionKey struct {
	oid  schema.OID
	attr string
}

// VersionStore keeps version chains for media-valued attributes, the
// version control §2 calls for in multimedia databases: editing
// applications check in successive cuts of a video value and can retrieve
// any earlier version.
type VersionStore struct {
	mu     sync.RWMutex
	chains map[versionKey][]Version
}

// NewVersionStore returns an empty version store.
func NewVersionStore() *VersionStore {
	return &VersionStore{chains: make(map[versionKey][]Version)}
}

// Checkin appends a new version of the attribute's value and returns its
// version number.
func (vs *VersionStore) Checkin(oid schema.OID, attr string, v media.Value, note string) (int, error) {
	if v == nil {
		return 0, fmt.Errorf("txn: nil value checked in for %v.%s", oid, attr)
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	k := versionKey{oid, attr}
	num := len(vs.chains[k]) + 1
	vs.chains[k] = append(vs.chains[k], Version{Num: num, Value: v, Note: note})
	return num, nil
}

// History returns the full chain, oldest first.
func (vs *VersionStore) History(oid schema.OID, attr string) []Version {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return append([]Version(nil), vs.chains[versionKey{oid, attr}]...)
}
