package schema

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// extentModel is the plain-map expectation side of TestExtentMatchesModel.
type extentModel struct {
	objects map[OID]*modelObject
	next    OID // the OID NewObject must hand out next
}

type modelObject struct {
	class *Class
	vals  map[string]Datum
}

// extent returns the model's live OIDs of c (with subclasses, or direct
// instances only), ascending.
func (m *extentModel) extent(c *Class, subclasses bool) []OID {
	var out []OID
	for oid, mo := range m.objects {
		if mo.class == c || (subclasses && mo.class.IsSubclassOf(c)) {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestExtentMatchesModel runs seeded random programs of NewObject,
// Delete, RestoreObject at a free OID, and Set/Get of inherited and own
// attributes over a three-level hierarchy, and after every operation
// holds the store to a plain map: each class's Scan and OfClass in
// membership and ascending order, and each object's Get, Fields and
// in-place Match through the slot of every class it belongs to.
func TestExtentMatchesModel(t *testing.T) {
	s := NewSchema()
	root, err := s.Define("Root", "", []AttrDef{{Name: "a", Kind: KindString}, {Name: "b", Kind: KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := s.Define("Mid", "Root", []AttrDef{{Name: "c", Kind: KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := s.Define("Leaf", "Mid", []AttrDef{{Name: "d", Kind: KindString}, {Name: "e", Kind: KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	classes := []*Class{root, mid, leaf}
	names := []string{"a", "b", "c", "d", "e"}
	if got := leaf.Attrs(); len(got) != 5 || got[0].Name != "a" || got[2].Name != "c" || got[4].Name != "e" {
		t.Fatalf("Leaf layout = %v, want inherited attributes first", got)
	}

	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := NewStore()
		m := &extentModel{objects: make(map[OID]*modelObject), next: 1}
		live := func() []OID { return m.extent(root, true) }
		for step := 0; step < 300; step++ {
			var what string
			switch r := rng.Intn(10); {
			case r < 3:
				c := classes[rng.Intn(len(classes))]
				o := store.NewObject(c)
				if o.OID() != m.next {
					t.Fatalf("seed %d step %d: NewObject gave %v, want %v", seed, step, o.OID(), m.next)
				}
				m.objects[o.OID()] = &modelObject{class: c, vals: make(map[string]Datum)}
				m.next++
				what = fmt.Sprintf("NewObject(%s) = %v", c, o.OID())
			case r < 4:
				ids := live()
				if len(ids) == 0 {
					continue
				}
				oid := ids[rng.Intn(len(ids))]
				if err := store.Delete(oid); err != nil {
					t.Fatal(err)
				}
				delete(m.objects, oid)
				what = fmt.Sprintf("Delete(%v)", oid)
			case r < 6:
				oid := OID(1 + rng.Intn(int(m.next)+3))
				c := classes[rng.Intn(len(classes))]
				_, err := store.RestoreObject(c, oid)
				if _, isLive := m.objects[oid]; isLive != (err != nil) {
					t.Fatalf("seed %d step %d: RestoreObject(%v) live=%v err=%v", seed, step, oid, isLive, err)
				}
				if err != nil {
					continue
				}
				m.objects[oid] = &modelObject{class: c, vals: make(map[string]Datum)}
				if oid >= m.next {
					m.next = oid + 1
				}
				what = fmt.Sprintf("RestoreObject(%s, %v)", c, oid)
			default:
				ids := live()
				if len(ids) == 0 {
					continue
				}
				oid := ids[rng.Intn(len(ids))]
				o, _ := store.Get(oid)
				mo := m.objects[oid]
				name := names[rng.Intn(len(names))]
				d := Int(rng.Int63n(100))
				if name == "a" || name == "d" {
					d = String(fmt.Sprint(rng.Intn(100)))
				}
				err := o.Set(name, d)
				if _, has := mo.class.Attr(name); has != (err == nil) {
					t.Fatalf("seed %d step %d: %s.Set(%s) err=%v", seed, step, mo.class, name, err)
				}
				if err == nil {
					mo.vals[name] = d
				}
				what = fmt.Sprintf("%v.Set(%s, %s)", oid, name, d.Format())
			}
			checkExtents(t, store, m, classes, names, fmt.Sprintf("seed %d step %d after %s", seed, step, what))
		}
	}
}

func checkExtents(t *testing.T, store *Store, m *extentModel, classes []*Class, names []string, when string) {
	t.Helper()
	for _, c := range classes {
		want := m.extent(c, true)
		var scanned []OID
		store.Scan(c, func(o *Object) { scanned = append(scanned, o.OID()) })
		if !reflect.DeepEqual(scanned, want) {
			t.Fatalf("%s: Scan(%s) = %v, want %v", when, c, scanned, want)
		}
		if got, want := directOIDs(store, c), m.extent(c, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: direct instances of %s = %v, want %v", when, c, got, want)
		}
	}
	if len(store.objects) != len(m.objects) {
		t.Fatalf("%s: %d objects, want %d", when, len(store.objects), len(m.objects))
	}
	for oid, mo := range m.objects {
		o, ok := store.Get(oid)
		if !ok || o.Class() != mo.class {
			t.Fatalf("%s: Get(%v) = %v, %v", when, oid, o, ok)
		}
		var fields []string
		for _, name := range names {
			want, set := mo.vals[name]
			if set {
				fields = append(fields, name)
			}
			if got, ok := o.Get(name); ok != set || !got.Equal(want) {
				t.Fatalf("%s: %v.Get(%s) = %v, %v; want %v, %v", when, oid, name, got.Format(), ok, want.Format(), set)
			}
			// A slot resolved on any class the object belongs to
			// addresses the same value.
			for k := mo.class; k != nil; k = k.Super() {
				slot, ok := k.Slot(name)
				if !ok {
					continue
				}
				if got := o.Match(slot, func(d *Datum) bool { return d.Equal(want) }); got != set {
					t.Fatalf("%s: %v.Match(%s slot of %s) = %v, want %v", when, oid, name, k, got, set)
				}
			}
		}
		if got := o.Fields(); !reflect.DeepEqual(append([]string{}, got...), append([]string{}, fields...)) {
			t.Fatalf("%s: %v.Fields() = %v, want %v", when, oid, got, fields)
		}
	}
}
