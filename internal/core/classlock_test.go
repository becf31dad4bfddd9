package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"avdb/internal/query"
	"avdb/internal/schema"
)

// TestTransactionShapesNeverDeadlock runs the five statement shapes core
// has — NewObject, SetAttr, GetAttr, DeleteObject, Select — concurrently
// over two classes and a small, shared set of objects.  No statement
// holds two class locks, and each takes its class lock before any other
// lock (DESIGN §17), so the workers must all finish before the deadline,
// and no call may fail except on a deleted object or an unset attribute.
func TestTransactionShapesNeverDeadlock(t *testing.T) {
	const workers, ops, deadline = 8, 300, 30 * time.Second
	db, err := Open(Config{Name: "shapes"})
	if err != nil {
		t.Fatal(err)
	}
	classes := []string{"A", "B"}
	for _, c := range classes {
		if _, err := db.DefineClass(c, "", []schema.AttrDef{{Name: "n", Kind: schema.KindInt}}); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu   sync.Mutex
		oids []schema.OID // every OID created; some deleted since
	)
	pick := func(rng *rand.Rand) schema.OID {
		mu.Lock()
		defer mu.Unlock()
		return oids[len(oids)-1-rng.Intn(min(len(oids), 8))] // the newest few: contended
	}
	create := func(class string) error {
		o, err := db.NewObject(class)
		if err == nil {
			mu.Lock()
			oids = append(oids, o.OID())
			mu.Unlock()
		}
		return err
	}
	for _, c := range classes {
		for i := 0; i < 4; i++ {
			if err := create(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				class := classes[rng.Intn(len(classes))]
				var err error
				switch p := rng.Intn(100); {
				case p < 15:
					err = create(class)
				case p < 45:
					err = db.SetAttr(pick(rng), "n", schema.Int(int64(rng.Intn(10))))
				case p < 70:
					_, err = db.GetAttr(pick(rng), "n")
				case p < 80:
					err = db.DeleteObject(pick(rng))
				default:
					_, err = db.Select("select " + class + " where n >= 3")
				}
				if err != nil && !errors.Is(err, ErrNoObject) && !strings.Contains(err.Error(), "has no value") {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("workers still running after %v", deadline)
	}
}

// intClassDB opens a database with one class C of one hash-indexed int
// attribute n.
func intClassDB(t *testing.T) (*Database, *query.Index) {
	t.Helper()
	db, err := Open(Config{Name: "classlock"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("C", "", []schema.AttrDef{{Name: "n", Kind: schema.KindInt}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("C", "n", query.HashIndex); err != nil {
		t.Fatal(err)
	}
	ix, _ := db.engine.Index("C", "n")
	return db, ix
}

// TestDeleteRacingSetAttrLeavesNoGhost races a SetAttr against a
// DeleteObject of the same object, round after round.  Whichever wins,
// nothing of the object may outlive the delete: a SetAttr that looked
// the object up before the delete and wrote after it once left an index
// entry for the dead OID and a live attr/ key no objmeta/ key names.
func TestDeleteRacingSetAttrLeavesNoGhost(t *testing.T) {
	const rounds = 2000
	db, ix := intClassDB(t)
	for i := 0; i < rounds; i++ {
		o, err := db.NewObject("C")
		if err != nil {
			t.Fatal(err)
		}
		oid, n := o.OID(), schema.Int(int64(i))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := db.SetAttr(oid, "n", n); err != nil && !errors.Is(err, ErrNoObject) {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := db.DeleteObject(oid); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if got := ix.Lookup(n); len(got) != 0 {
			t.Fatalf("round %d: index holds %v after %v was deleted", i, got, oid)
		}
	}
	for key := range db.log.Live() {
		if strings.HasPrefix(key, attrPrefix) {
			t.Errorf("live key %q outlived its object", key)
		}
	}
}

// TestConcurrentSetAttrAgreesAcrossRecovery has 4 goroutines SetAttr one
// indexed attribute of one object at once.  The class lock orders each
// write's object change, index update and log commit alike, so
// afterwards the value in memory, the object's single index entry and
// the value recovery rebuilds must all agree.
func TestConcurrentSetAttrAgreesAcrossRecovery(t *testing.T) {
	const rounds, writers = 200, 4
	for r := 0; r < rounds; r++ {
		db, ix := intClassDB(t)
		o, err := db.NewObject("C")
		if err != nil {
			t.Fatal(err)
		}
		oid := o.OID()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := db.SetAttr(oid, "n", schema.Int(int64(w))); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		mem, err := db.GetAttr(oid, "n")
		if err != nil {
			t.Fatal(err)
		}
		var indexed []int64
		for w := 0; w < writers; w++ {
			for _, id := range ix.Lookup(schema.Int(int64(w))) {
				if id == oid {
					indexed = append(indexed, int64(w))
				}
			}
		}
		if len(indexed) != 1 || indexed[0] != mem.IntVal() {
			t.Fatalf("round %d: memory holds %d, index holds %v", r, mem.IntVal(), indexed)
		}
		db.Crash()
		if err := db.Recover(); err != nil {
			t.Fatal(err)
		}
		if got, err := db.GetAttr(oid, "n"); err != nil || got.IntVal() != mem.IntVal() {
			t.Fatalf("round %d: memory held %d, recovery rebuilt %v (%v)", r, mem.IntVal(), got, err)
		}
	}
}

// TestGetAttrAllocs pins GetAttr at 0 allocations: it reads under the
// store's lock and begins nothing.
func TestGetAttrAllocs(t *testing.T) {
	db, _ := intClassDB(t)
	o, err := db.NewObject("C")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(o.OID(), "n", schema.Int(7)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.GetAttr(o.OID(), "n"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("GetAttr: %v allocs, want 0", allocs)
	}
}
