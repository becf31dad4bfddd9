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

// Object is a class instance.  Its values sit in one slot per attribute
// of its class's layout (Class.Attrs).  The slots are guarded by the
// lock of the store that made the object: Set holds it exclusively, Get
// and Fields shared, and Match runs under a Scan or Visit that holds it.
type Object struct {
	oid    OID
	class  *Class
	store  *Store
	fields []field
}

// field is one attribute slot of an object.
type field struct {
	d   Datum
	set bool
}

func newObject(s *Store, c *Class, oid OID) *Object {
	return &Object{oid: oid, class: c, store: s, fields: make([]field, len(c.all))}
}

// OID returns the object's identifier.
func (o *Object) OID() OID { return o.oid }

// Class returns the object's class.
func (o *Object) Class() *Class { return o.class }

// Set assigns an attribute, checking that the attribute exists and the
// datum matches its declared kind (including the media kind and the
// track layout of tcomp attributes).
func (o *Object) Set(name string, d Datum) error {
	slot, ok := o.class.slots[name]
	if !ok {
		return fmt.Errorf("schema: class %s has no attribute %q", o.class.name, name)
	}
	attr := o.class.all[slot]
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
	o.store.mu.Lock()
	o.fields[slot] = field{d, true}
	o.store.mu.Unlock()
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
	slot, ok := o.class.slots[name]
	if !ok {
		return Datum{}, false
	}
	o.store.mu.RLock()
	defer o.store.mu.RUnlock()
	f := &o.fields[slot]
	return f.d, f.set
}

// Match tests the value in a slot of the object's class layout (see
// Class.Slot) in place; an unset slot matches nothing.  It takes no
// lock: call it only from a Scan or Visit callback, which runs under
// the store's read lock.
func (o *Object) Match(slot int, pred func(*Datum) bool) bool {
	f := &o.fields[slot]
	return f.set && pred(&f.d)
}

// Fields returns the set attribute names, sorted.
func (o *Object) Fields() []string {
	o.store.mu.RLock()
	defer o.store.mu.RUnlock()
	names := make([]string, 0, len(o.fields))
	for i := range o.fields {
		if o.fields[i].set {
			names = append(names, o.class.all[i].Name)
		}
	}
	sort.Strings(names)
	return names
}

// String summarizes the object.
func (o *Object) String() string {
	return fmt.Sprintf("%s(%v)", o.class.name, o.oid)
}

// Store holds class instances and assigns OIDs.  Each class's direct
// instances are kept in one list in ascending OID order, so a scan of a
// class extent walks objects in the order queries return them.  Its
// lock also guards its objects' slots; the only code from outside the
// store that runs under it is a Scan or Visit callback.
type Store struct {
	mu      sync.RWMutex
	nextOID OID
	objects map[OID]*Object
	byClass map[*Class][]*Object // ascending OID
}

// NewStore returns an empty object store.
func NewStore() *Store {
	return &Store{nextOID: 1, objects: make(map[OID]*Object), byClass: make(map[*Class][]*Object)}
}

// NewObject creates an instance of the class.
func (s *Store) NewObject(c *Class) *Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := newObject(s, c, s.nextOID)
	s.nextOID++
	s.objects[o.oid] = o
	s.byClass[c] = append(s.byClass[c], o) // the newest OID sorts last
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
	o := newObject(s, c, oid)
	s.objects[oid] = o
	ext := s.byClass[c]
	i := search(ext, oid)
	ext = append(ext, nil)
	copy(ext[i+1:], ext[i:])
	ext[i] = o
	s.byClass[c] = ext
	if oid >= s.nextOID {
		s.nextOID = oid + 1
	}
	return o, nil
}

// search returns the index of the first object in the ascending list
// whose OID is not below oid.
func search(ext []*Object, oid OID) int {
	return sort.Search(len(ext), func(i int) bool { return ext[i].oid >= oid })
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
	ext := s.byClass[o.class]
	i := search(ext, oid)
	copy(ext[i:], ext[i+1:])
	ext[len(ext)-1] = nil
	s.byClass[o.class] = ext[:len(ext)-1]
	return nil
}

// Visit calls fn, under one read lock of the store, for each of the
// OIDs that names a live object, in the order given.  fn reads slots
// with Object.Match and must not call back into the store, an object's
// Get, Set or Fields included.
func (s *Store) Visit(oids []OID, fn func(*Object)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, oid := range oids {
		if o, ok := s.objects[oid]; ok {
			fn(o)
		}
	}
}

// Scan calls fn for every object in the extent of c — its instances and
// those of its subclasses — in ascending OID order, under one read lock
// of the store.  fn reads slots with Object.Match and must not call back
// into the store, an object's Get, Set or Fields included.
func (s *Store) Scan(c *Class, fn func(*Object)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var lists [][]*Object
	for k, ext := range s.byClass {
		if len(ext) > 0 && k.IsSubclassOf(c) {
			lists = append(lists, ext)
		}
	}
	if len(lists) == 1 {
		for _, o := range lists[0] {
			fn(o)
		}
		return
	}
	// Merge: each step takes the lowest head among the class lists.
	for {
		next := -1
		for i, ext := range lists {
			if len(ext) > 0 && (next < 0 || ext[0].oid < lists[next][0].oid) {
				next = i
			}
		}
		if next < 0 {
			return
		}
		fn(lists[next][0])
		lists[next] = lists[next][1:]
	}
}
