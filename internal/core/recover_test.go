package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"avdb/internal/query"
	"avdb/internal/schema"
)

// TestRecoverNeverReusesOID: deleting the newest object and recovering
// must not hand its OID to the next object, and with the OID its placed
// video.
func TestRecoverNeverReusesOID(t *testing.T) {
	db := testDB(t)
	keep := storeNewscast(t, db, "Keep", 2)
	gone := storeNewscast(t, db, "Gone", 2)
	if err := db.DeleteObject(gone); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Placement(gone, "videoTrack", ""); ok {
		t.Error("DeleteObject kept the deleted object's placement")
	}
	if _, ok := db.Placement(keep, "videoTrack", ""); !ok {
		t.Error("DeleteObject dropped another object's placement")
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	o, err := db.NewObject("SimpleNewscast")
	if err != nil {
		t.Fatal(err)
	}
	if o.OID() <= gone {
		t.Errorf("keep=%v gone=%v new=%v: recovery handed out an OID the log had named", keep, gone, o.OID())
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	again, ok := db.Object(o.OID())
	if !ok {
		t.Fatalf("%v lost in the second recovery", o.OID())
	}
	if d, had := again.Get("videoTrack"); had {
		t.Errorf("%v came back with a video it never had: %s", o.OID(), d.Format())
	}
	// A recovery with every object deleted still remembers.
	for _, oid := range []schema.OID{keep, o.OID()} {
		if err := db.DeleteObject(oid); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash()
	if err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	if last, err := db.NewObject("MediaObject"); err != nil || last.OID() <= o.OID() {
		t.Errorf("after deleting everything the next OID is %v (%v), want above %v", last.OID(), err, o.OID())
	}
}

// TestRecoverOIDAboveConcurrentAllocations: NewObject calls race, every
// object is deleted, and after a crash the next OID must still be above
// every OID handed out.  No live key names those OIDs, so it rests on
// the last nextoid image in the log being the highest.
func TestRecoverOIDAboveConcurrentAllocations(t *testing.T) {
	db, err := Open(Config{Name: "oids"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("Item", "", nil); err != nil {
		t.Fatal(err)
	}
	const rounds, goroutines = 300, 4
	var highest schema.OID
	for r := 0; r < rounds; r++ {
		oids := make([]schema.OID, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range oids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				o, err := db.NewObject("Item")
				if err != nil {
					t.Error(err)
					return
				}
				oids[g] = o.OID()
			}()
		}
		close(start)
		wg.Wait()
		for _, oid := range oids {
			highest = max(highest, oid)
			if err := db.DeleteObject(oid); err != nil {
				t.Fatal(err)
			}
		}
		db.Crash()
		if err := db.Recover(); err != nil {
			t.Fatal(err)
		}
		o, err := db.NewObject("Item")
		if err != nil {
			t.Fatal(err)
		}
		if o.OID() <= highest {
			t.Fatalf("round %d: after recovery NewObject returned %v, not above %v", r, o.OID(), highest)
		}
		highest = o.OID()
		if err := db.DeleteObject(o.OID()); err != nil {
			t.Fatal(err)
		}
	}
}

// The model of TestRecoverMatchesModel: what a database that lost
// nothing would hold.
type modelObject struct {
	class  string
	fields map[string]schema.Datum
}

type recoverModel struct {
	objects map[schema.OID]*modelObject
	links   map[Link]bool
	highest schema.OID // the highest OID NewObject has returned
}

func (m *recoverModel) liveOIDs() []schema.OID {
	out := make([]schema.OID, 0, len(m.objects))
	for oid := range m.objects {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// selectWhere is the model's Select: the OIDs, ascending, of the live
// objects whose attribute passes keep.
func (m *recoverModel) selectWhere(attr string, keep func(schema.Datum) bool) []schema.OID {
	out := []schema.OID{}
	for _, oid := range m.liveOIDs() {
		if d, had := m.objects[oid].fields[attr]; had && keep(d) {
			out = append(out, oid)
		}
	}
	return out
}

var modelAttrs = []schema.AttrDef{
	{Name: "s", Kind: schema.KindString},
	{Name: "n", Kind: schema.KindInt},
	{Name: "f", Kind: schema.KindFloat},
	{Name: "b", Kind: schema.KindBool},
	{Name: "d", Kind: schema.KindDate},
}

// randomDatum draws a value for the attribute from small domains, so
// that overwrites, equal values and query hits all happen.
func randomDatum(rng *rand.Rand, kind schema.AttrKind) schema.Datum {
	switch kind {
	case schema.KindString:
		return schema.String([]string{"", "news", "sport", "a/b", "weather\x00"}[rng.Intn(5)])
	case schema.KindInt:
		return schema.Int(int64(rng.Intn(21) - 10))
	case schema.KindFloat:
		return schema.Float([]float64{0, math.Copysign(0, -1), 29.97, math.Inf(-1), math.NaN()}[rng.Intn(5)])
	case schema.KindBool:
		return schema.Bool(rng.Intn(2) == 0)
	}
	return schema.Date(time.Date(1993, 4, 1+rng.Intn(5), rng.Intn(24), 0, 0, 0, time.UTC))
}

// check compares the database with the model: objects, fields, links and
// two indexed queries.
func (m *recoverModel) check(t *testing.T, db *Database, when string) {
	t.Helper()
	for _, class := range []string{"Item", "SubItem"} {
		want := []schema.OID{}
		for _, oid := range m.liveOIDs() {
			if m.objects[oid].class == class {
				want = append(want, oid)
			}
		}
		c, _ := db.Schema().Class(class)
		if got := directInstances(db, c); !reflect.DeepEqual(append([]schema.OID{}, got...), want) {
			t.Fatalf("%s: %s extent = %v, want %v", when, class, got, want)
		}
	}
	if got := objectCount(db); got != len(m.objects) {
		t.Fatalf("%s: %d objects, want %d", when, got, len(m.objects))
	}
	wantFrom, wantTo := make(map[schema.OID][]Link), make(map[schema.OID][]Link)
	for l := range m.links {
		wantFrom[l.From] = append(wantFrom[l.From], l)
		wantTo[l.To] = append(wantTo[l.To], l)
	}
	for oid, mo := range m.objects {
		o, ok := db.Object(oid)
		if !ok || o.Class().Name() != mo.class {
			t.Fatalf("%s: %v is %v, want a %s", when, oid, o, mo.class)
		}
		names := make([]string, 0, len(mo.fields))
		for name, want := range mo.fields {
			names = append(names, name)
			if got, had := o.Get(name); !had || !sameDatum(got, want) {
				t.Fatalf("%s: %v.%s = %s (%v), want %s", when, oid, name, got.Format(), had, want.Format())
			}
		}
		sort.Strings(names)
		if got := o.Fields(); !reflect.DeepEqual(append([]string{}, got...), names) {
			t.Fatalf("%s: %v has fields %v, want %v", when, oid, got, names)
		}
	}
	// Links outlive their ends, so ask about every OID ever used.
	ends := make(map[schema.OID]bool)
	for l := range m.links {
		ends[l.From], ends[l.To] = true, true
	}
	for oid := range m.objects {
		ends[oid] = true
	}
	for oid := range ends {
		sortLinks(wantFrom[oid])
		sortLinks(wantTo[oid])
		if got := db.Links(oid); !reflect.DeepEqual(got, wantFrom[oid]) {
			t.Fatalf("%s: Links(%v) = %v, want %v", when, oid, got, wantFrom[oid])
		}
		if got := db.Backlinks(oid); !reflect.DeepEqual(got, wantTo[oid]) {
			t.Fatalf("%s: Backlinks(%v) = %v, want %v", when, oid, got, wantTo[oid])
		}
	}
	got, err := db.Select(`select Item where s = "news"`)
	if want := m.selectWhere("s", func(d schema.Datum) bool { return d.Str() == "news" }); err != nil || !reflect.DeepEqual(append([]schema.OID{}, got...), want) {
		t.Fatalf("%s: hash-indexed select = %v (%v), want %v", when, got, err, want)
	}
	got, err = db.Select(`select Item where n >= 2 and n < 8`)
	if want := m.selectWhere("n", func(d schema.Datum) bool { return d.IntVal() >= 2 && d.IntVal() < 8 }); err != nil || !reflect.DeepEqual(append([]schema.OID{}, got...), want) {
		t.Fatalf("%s: B-tree-indexed select = %v (%v), want %v", when, got, err, want)
	}
}

// step applies one random operation to the database and the model.
func (m *recoverModel) step(t *testing.T, db *Database, rng *rand.Rand) {
	t.Helper()
	live := m.liveOIDs()
	pick := func() schema.OID { return live[rng.Intn(len(live))] }
	switch p := rng.Intn(100); {
	case p < 20 || len(live) < 2:
		class := []string{"Item", "SubItem"}[rng.Intn(2)]
		o, err := db.NewObject(class)
		if err != nil {
			t.Fatal(err)
		}
		if o.OID() <= m.highest {
			t.Fatalf("NewObject returned %v after %v", o.OID(), m.highest)
		}
		m.highest = o.OID()
		m.objects[o.OID()] = &modelObject{class: class, fields: make(map[string]schema.Datum)}
	case p < 70:
		oid, attr := pick(), modelAttrs[rng.Intn(len(modelAttrs))]
		d := randomDatum(rng, attr.Kind)
		if err := db.SetAttr(oid, attr.Name, d); err != nil {
			t.Fatal(err)
		}
		m.objects[oid].fields[attr.Name] = d
	case p < 78:
		oid := pick()
		if err := db.DeleteObject(oid); err != nil {
			t.Fatal(err)
		}
		delete(m.objects, oid)
	case p < 92:
		l := Link{From: pick(), To: pick(), Label: []string{"cites", "clip-of"}[rng.Intn(2)]}
		if err := db.AddLink(l.From, l.To, l.Label); err != nil {
			t.Fatal(err)
		}
		m.links[l] = true
	default:
		for l := range m.links { // any one: the model is a set
			if err := db.RemoveLink(l.From, l.To, l.Label); err != nil {
				t.Fatal(err)
			}
			delete(m.links, l)
			break
		}
	}
}

// TestRecoverMatchesModel runs seeded random programs against a model
// and holds the recovered database to the model.  No API can leave an
// aborted or partial statement in the log; that a crash sees each
// statement whole is txn.TestLogSnapshotsSeeWholeStatements'.
func TestRecoverMatchesModel(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db, err := Open(Config{Name: "model"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.DefineClass("Item", "", modelAttrs); err != nil {
				t.Fatal(err)
			}
			if _, err := db.DefineClass("SubItem", "Item", nil); err != nil {
				t.Fatal(err)
			}
			index := func() {
				t.Helper()
				if err := db.CreateIndex("Item", "s", query.HashIndex); err != nil {
					t.Fatal(err)
				}
				if err := db.CreateIndex("Item", "n", query.BTreeIndex); err != nil {
					t.Fatal(err)
				}
			}
			recoverDB := func() {
				t.Helper()
				db.Crash()
				if err := db.Recover(); err != nil {
					t.Fatal(err)
				}
				index()
			}
			index()
			m := &recoverModel{objects: make(map[schema.OID]*modelObject), links: make(map[Link]bool)}
			for op := 0; op < 200; op++ {
				m.step(t, db, rng)
			}
			m.check(t, db, "before the crash")
			recoverDB()
			m.check(t, db, "after recovery")
			recoverDB()
			m.check(t, db, "after a second recovery")
			// The recovered database carries on, never reusing an OID, and
			// what it commits from here on survives the next crash.
			for op := 0; op < 60; op++ {
				m.step(t, db, rng)
			}
			m.check(t, db, "after carrying on")
			recoverDB()
			m.check(t, db, "after a third recovery")
		})
	}
}

// catalogDB returns a database holding n catalog objects of five scalar
// attributes each — the shape of the benchmark's record_and_catalog
// catalog — and a function that crashes it, recovers it and rebuilds its
// two indexes.
func catalogDB(tb testing.TB, n int) (db *Database, cycle func()) {
	tb.Helper()
	db, err := Open(Config{Name: "catalog"})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.DefineClass("Newscast", "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
		{Name: "broadcastSource", Kind: schema.KindString},
		{Name: "whenBroadcast", Kind: schema.KindDate},
		{Name: "keywords", Kind: schema.KindString},
		{Name: "frames", Kind: schema.KindInt},
	}); err != nil {
		tb.Fatal(err)
	}
	epoch := time.Date(1993, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		o, err := db.NewObject("Newscast")
		if err != nil {
			tb.Fatal(err)
		}
		for _, a := range []struct {
			name string
			d    schema.Datum
		}{
			{"title", schema.String(fmt.Sprintf("news-%06d", i))},
			{"broadcastSource", schema.String([]string{"CBS", "TSR", "BBC"}[i%3])},
			{"whenBroadcast", schema.Date(epoch.AddDate(0, 0, i%365))},
			{"keywords", schema.String("election weather")},
			{"frames", schema.Int(int64(30 * (1 + i%60)))},
		} {
			if err := db.SetAttr(o.OID(), a.name, a.d); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db, func() {
		db.Crash()
		if err := db.Recover(); err != nil {
			tb.Fatal(err)
		}
		if err := db.CreateIndex("Newscast", "title", query.HashIndex); err != nil {
			tb.Fatal(err)
		}
		if err := db.CreateIndex("Newscast", "whenBroadcast", query.BTreeIndex); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCatalogLoad is the load of an 8000-object catalog through
// NewObject and SetAttr: 48,000 committed statements, the catalog's
// share of setup_s on record_and_catalog.
func BenchmarkCatalogLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		catalogDB(b, 8000)
	}
}

// BenchmarkRecoverCatalog is one crash, recovery and index rebuild of an
// 8000-object catalog: what recover_ms times on record_and_catalog.
func BenchmarkRecoverCatalog(b *testing.B) {
	db, cycle := catalogDB(b, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if n := objectCount(db); n != 8000 {
		b.Fatalf("recovered %d objects, want 8000", n)
	}
}

// TestRecoverAllocsPerAttr pins what recovering one attribute may
// allocate: its key's entry in the store and in the object's field map,
// its string.  A codec that builds a decoder per datum costs hundreds.
func TestRecoverAllocsPerAttr(t *testing.T) {
	const objects, attrs = 500, 5
	db, _ := catalogDB(t, objects)
	allocs := testing.AllocsPerRun(5, func() {
		db.Crash()
		if err := db.Recover(); err != nil {
			t.Fatal(err)
		}
	})
	if got := objectCount(db); got != objects {
		t.Fatalf("recovered %d objects, want %d", got, objects)
	}
	if per := allocs / (objects * attrs); per > 4 {
		t.Errorf("Recover: %.2f allocs per recovered attribute, want <= 4", per)
	} else {
		t.Logf("Recover: %.2f allocs per recovered attribute", per)
	}
}

// directInstances lists the OIDs of c's own instances, in OID order.
func directInstances(db *Database, c *schema.Class) []schema.OID {
	var out []schema.OID
	db.objects.Scan(c, func(o *schema.Object) {
		if o.Class() == c {
			out = append(out, o.OID())
		}
	})
	return out
}

// objectCount counts the stored objects of every class.
func objectCount(db *Database) int {
	n := 0
	for _, name := range db.Schema().Classes() {
		c, _ := db.Schema().Class(name)
		n += len(directInstances(db, c))
	}
	return n
}
