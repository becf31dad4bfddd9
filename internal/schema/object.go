package schema

import (
	"fmt"
	"sort"
	"sync"

	"avdb/internal/media"
)

// OID identifies an object in a store.  Queries return OIDs, not values:
// "certain requests, such as queries, may return references (i.e., names
// or identifiers) to AV values rather than the values themselves" (§3.1).
type OID uint64

// String formats the OID.
func (o OID) String() string { return fmt.Sprintf("oid:%d", uint64(o)) }

// Object is a class instance.
type Object struct {
	oid   OID
	class *Class

	mu     sync.RWMutex
	fields map[string]Datum
}

// OID returns the object's identifier.
func (o *Object) OID() OID { return o.oid }

// Class returns the object's class.
func (o *Object) Class() *Class { return o.class }

// Set assigns an attribute, checking that the attribute exists and the
// datum matches its declared kind (including the media kind and the
// track layout of tcomp attributes).
func (o *Object) Set(name string, d Datum) error {
	attr, ok := o.class.Attr(name)
	if !ok {
		return fmt.Errorf("schema: class %s has no attribute %q", o.class.name, name)
	}
	if attr.Kind != d.Kind() {
		return fmt.Errorf("schema: attribute %s.%s is %v, got %v", o.class.name, name, attr.Kind, d.Kind())
	}
	switch attr.Kind {
	case KindMedia:
		if err := checkMedia(attr, d.MediaVal()); err != nil {
			return fmt.Errorf("schema: attribute %s.%s: %w", o.class.name, name, err)
		}
	case KindTComp:
		if err := checkTComp(attr, d); err != nil {
			return fmt.Errorf("schema: attribute %s.%s: %w", o.class.name, name, err)
		}
	}
	o.mu.Lock()
	o.fields[name] = d
	o.mu.Unlock()
	return nil
}

func checkMedia(attr AttrDef, v media.Value) error {
	if v == nil {
		return fmt.Errorf("nil media value")
	}
	if v.Type().Kind != attr.MediaKind {
		return fmt.Errorf("want %v value, got %v", attr.MediaKind, v.Type().Kind)
	}
	// Best-effort quality verification for values that expose geometry
	// (raw and encoded video both do).
	if !attr.VideoQuality.IsZero() {
		type geometry interface {
			Width() int
			Height() int
			Depth() int
		}
		if g, ok := v.(geometry); ok {
			got := media.VideoQuality{Width: g.Width(), Height: g.Height(), Depth: g.Depth(),
				FPS: int(v.Type().Rate.Hz())}
			if !got.AtLeast(attr.VideoQuality) {
				return fmt.Errorf("value quality %v below declared %v", got, attr.VideoQuality)
			}
		}
	}
	return nil
}

func checkTComp(attr AttrDef, d Datum) error {
	tc := d.TCompVal()
	if tc == nil {
		return fmt.Errorf("nil tcomp value")
	}
	for _, td := range attr.Tracks {
		track, ok := tc.Track(td.Name)
		if !ok {
			return fmt.Errorf("missing track %q", td.Name)
		}
		if track.Value.Type().Kind != td.MediaKind {
			return fmt.Errorf("track %q: want %v, got %v", td.Name, td.MediaKind, track.Value.Type().Kind)
		}
	}
	return nil
}

// Get returns an attribute's value.
func (o *Object) Get(name string) (Datum, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	d, ok := o.fields[name]
	return d, ok
}

// Fields returns the set attribute names, sorted.
func (o *Object) Fields() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	names := make([]string, 0, len(o.fields))
	for n := range o.fields {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String summarizes the object.
func (o *Object) String() string {
	return fmt.Sprintf("%s(%v)", o.class.name, o.oid)
}

// Store holds class instances and assigns OIDs.
type Store struct {
	mu      sync.RWMutex
	nextOID OID
	objects map[OID]*Object
	byClass map[string][]OID
}

// NewStore returns an empty object store.
func NewStore() *Store {
	return &Store{nextOID: 1, objects: make(map[OID]*Object), byClass: make(map[string][]OID)}
}

// NewObject creates an instance of the class.
func (s *Store) NewObject(c *Class) *Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := &Object{oid: s.nextOID, class: c, fields: make(map[string]Datum)}
	s.nextOID++
	s.objects[o.oid] = o
	s.byClass[c.name] = append(s.byClass[c.name], o.oid)
	return o
}

// RestoreObject recreates an object under a known OID, for recovery from
// a log.  The OID must not be live; the store's allocator is advanced
// past it.
func (s *Store) RestoreObject(c *Class, oid OID) (*Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.objects[oid]; live {
		return nil, fmt.Errorf("schema: OID %v already live", oid)
	}
	o := &Object{oid: oid, class: c, fields: make(map[string]Datum)}
	s.objects[oid] = o
	s.byClass[c.name] = append(s.byClass[c.name], oid)
	if oid >= s.nextOID {
		s.nextOID = oid + 1
	}
	return o, nil
}

// ReserveBelow advances the allocator so that NewObject never returns an
// OID below next — recovery's way of retiring the OIDs of objects that
// were deleted before the crash.  It never moves the allocator back.
func (s *Store) ReserveBelow(next OID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if next > s.nextOID {
		s.nextOID = next
	}
}

// Get returns the object with the given OID.
func (s *Store) Get(oid OID) (*Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[oid]
	return o, ok
}

// Delete removes an object.  Deleting a missing OID is an error.
func (s *Store) Delete(oid OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[oid]
	if !ok {
		return fmt.Errorf("schema: no object %v", oid)
	}
	delete(s.objects, oid)
	oids := s.byClass[o.class.name]
	for i, id := range oids {
		if id == oid {
			s.byClass[o.class.name] = append(oids[:i], oids[i+1:]...)
			break
		}
	}
	return nil
}

// Count reports the number of stored objects.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// OfClass returns the OIDs of the class's direct instances, in creation
// order.  With subclasses true it also includes instances of descendant
// classes (the class extent).
func (s *Store) OfClass(c *Class, subclasses bool) []OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !subclasses {
		return append([]OID(nil), s.byClass[c.name]...)
	}
	var out []OID
	for _, oids := range s.byClass {
		for _, oid := range oids {
			if s.objects[oid].class.IsSubclassOf(c) {
				out = append(out, oid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
