package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"avdb/internal/schema"
	"avdb/internal/txn"
)

// TestTransactionShapesNeverDeadlock runs the five transaction shapes
// core has — NewObject, SetAttr, GetAttr, DeleteObject, Select —
// concurrently over two classes and a small, shared set of objects.
// Each takes its locks down one path of the hierarchy, at most one class
// and one object, so no wait-for cycle can form (DESIGN §17): no call
// may fail with txn.ErrDeadlock.
func TestTransactionShapesNeverDeadlock(t *testing.T) {
	const workers, ops = 8, 300
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
				// Missing objects and unset attributes are expected here;
				// a deadlock never is.
				if errors.Is(err, txn.ErrDeadlock) {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
