package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"avdb/internal/query"
	"avdb/internal/schema"
)

// TestSelectConcurrentWithWrites runs the three browse shapes — a
// B-tree range, an unindexed contains scan, a hash point lookup —
// against a 2000-object catalog while writers SetAttr, NewObject and
// DeleteObject.  The catalog is a root class and a subclass, and the
// readers query the root, so the scans merge two extents that writers
// of the subclass change under no class lock the readers hold.  Every
// result must be ascending and free of duplicates; after the writers
// stop, every shape must equal the writers' model.
func TestSelectConcurrentWithWrites(t *testing.T) {
	const (
		objects = 2000
		writers = 2
		readers = 2
		ops     = 60 // per writer
		titles  = 40
	)
	// catalogItem is a writer's own record of one catalog object.
	type catalogItem struct {
		title, keywords string
		day             int
	}
	words := []string{"politics", "sports", "weather", "finance", "science"}
	epoch := time.Date(1993, 1, 1, 0, 0, 0, 0, time.UTC)
	db, err := OpenDefault("conc", PlatformConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	attrs := []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
		{Name: "keywords", Kind: schema.KindString},
		{Name: "whenBroadcast", Kind: schema.KindDate},
	}
	if _, err := db.DefineClass("Clip", "", attrs); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("NewsClip", "Clip", nil); err != nil {
		t.Fatal(err)
	}
	classes := []string{"Clip", "NewsClip"}

	models := make([]map[schema.OID]catalogItem, writers)
	for w := range models {
		models[w] = make(map[schema.OID]catalogItem)
	}
	put := func(rng *rand.Rand, oid schema.OID) (catalogItem, error) {
		it := catalogItem{
			title:    fmt.Sprintf("title %d", rng.Intn(titles)),
			keywords: words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))],
			day:      rng.Intn(200),
		}
		for _, a := range []struct {
			name string
			d    schema.Datum
		}{
			{"title", schema.String(it.title)},
			{"keywords", schema.String(it.keywords)},
			{"whenBroadcast", schema.Date(epoch.AddDate(0, 0, it.day))},
		} {
			if err := db.SetAttr(oid, a.name, a.d); err != nil {
				return it, err
			}
		}
		return it, nil
	}
	create := func(rng *rand.Rand, w int) error {
		o, err := db.NewObject(classes[rng.Intn(len(classes))])
		if err != nil {
			return err
		}
		it, err := put(rng, o.OID())
		models[w][o.OID()] = it
		return err
	}
	seedRNG := rand.New(rand.NewSource(1))
	for i := 0; i < objects; i++ {
		if err := create(seedRNG, i%writers); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("Clip", "title", query.HashIndex); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("Clip", "whenBroadcast", query.BTreeIndex); err != nil {
		t.Fatal(err)
	}

	date := func(day int) string { return epoch.AddDate(0, 0, day).Format("2006-01-02") }
	shapes := func(rng *rand.Rand) []string {
		lo := rng.Intn(200)
		return []string{
			fmt.Sprintf("select Clip where whenBroadcast >= %s and whenBroadcast < %s", date(lo), date(lo+3)),
			fmt.Sprintf("select Clip where keywords contains %q", words[rng.Intn(len(words))]),
			fmt.Sprintf("select Clip where title = %q", fmt.Sprintf("title %d", rng.Intn(titles))),
		}
	}

	var (
		wg      sync.WaitGroup
		done    = make(chan struct{})
		errs    = make(chan error, writers+readers)
		writeWG sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			mine := models[w]
			pick := func() schema.OID {
				ids := make([]schema.OID, 0, len(mine))
				for oid := range mine {
					ids = append(ids, oid)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				return ids[rng.Intn(len(ids))]
			}
			for i := 0; i < ops; i++ {
				var err error
				switch r := rng.Intn(3); {
				case r == 0:
					err = create(rng, w)
				case r == 1 && len(mine) > 0:
					oid := pick()
					err = db.DeleteObject(oid)
					delete(mine, oid)
				case len(mine) > 0:
					oid := pick()
					mine[oid], err = put(rng, oid)
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				for _, q := range shapes(rng) {
					oids, err := db.Select(q)
					if err != nil {
						errs <- fmt.Errorf("reader %d: %s: %w", r, q, err)
						return
					}
					for i := 1; i < len(oids); i++ {
						if oids[i] <= oids[i-1] {
							errs <- fmt.Errorf("reader %d: %s: result not ascending and distinct at %d: %v", r, q, i, oids[i-1:i+1])
							return
						}
					}
					// Let a writer waiting on the class lock in.
					runtime.Gosched()
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	writeWG.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent: every shape equals the model.
	model := make(map[schema.OID]catalogItem)
	for _, m := range models {
		for oid, it := range m {
			model[oid] = it
		}
	}
	want := func(match func(catalogItem) bool) []schema.OID {
		var out []schema.OID
		for oid, it := range model {
			if match(it) {
				out = append(out, oid)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	check := func(q string, match func(catalogItem) bool) {
		t.Helper()
		got, err := db.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		if exp := want(match); fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Fatalf("%s: got %d objects %v, want %d %v", q, len(got), got, len(exp), exp)
		}
	}
	check("select Clip", func(catalogItem) bool { return true })
	for lo := 0; lo < 200; lo += 17 {
		check(fmt.Sprintf("select Clip where whenBroadcast >= %s and whenBroadcast < %s", date(lo), date(lo+3)),
			func(it catalogItem) bool { return it.day >= lo && it.day < lo+3 })
	}
	for _, word := range words {
		check(fmt.Sprintf("select Clip where keywords contains %q", word),
			func(it catalogItem) bool { return strings.Contains(it.keywords, word) })
	}
	for k := 0; k < titles; k += 7 {
		title := fmt.Sprintf("title %d", k)
		check(fmt.Sprintf("select Clip where title = %q", title),
			func(it catalogItem) bool { return it.title == title })
	}
}

// TestScanAgainstSubclassWrites holds the rule that the store's lock
// guards every object's slots.  A Select of the root class holds only
// the root's class lock, so SetAttr on subclass objects — under the
// subclass's lock alone — runs beside its scan, as do GetAttr and
// Object(oid).Get.  Run under -race, an Object.Set that skipped the
// store's lock fails here.  Once the writers stop, the scan must equal
// the writers' model.
func TestScanAgainstSubclassWrites(t *testing.T) {
	const (
		objects = 400
		writers = 2
		ops     = 300 // per writer
	)
	words := []string{"politics", "sports", "weather"}
	db, err := Open(Config{Name: "subclass-writes"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("Clip", "", []schema.AttrDef{
		{Name: "keywords", Kind: schema.KindString},
		{Name: "n", Kind: schema.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("NewsClip", "Clip", nil); err != nil {
		t.Fatal(err)
	}
	keywords := make(map[schema.OID]string) // the model
	var subs []schema.OID                   // the NewsClip objects
	for i := 0; i < objects; i++ {
		class := "Clip"
		if i%2 == 1 {
			class = "NewsClip"
		}
		o, err := db.NewObject(class)
		if err != nil {
			t.Fatal(err)
		}
		keywords[o.OID()] = words[i%len(words)]
		if err := db.SetAttr(o.OID(), "keywords", schema.String(keywords[o.OID()])); err != nil {
			t.Fatal(err)
		}
		if class == "NewsClip" {
			subs = append(subs, o.OID())
		}
	}

	var (
		writeWG, readWG sync.WaitGroup
		done            = make(chan struct{})
		mu              sync.Mutex // guards keywords while writers run
	)
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				oid := subs[w+writers*rng.Intn(len(subs)/writers)] // each writer owns its own objects
				kw := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
				if err := db.SetAttr(oid, "keywords", schema.String(kw)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if err := db.SetAttr(oid, "n", schema.Int(int64(i))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mu.Lock()
				keywords[oid] = kw
				mu.Unlock()
			}
		}(w)
	}
	reader := func(read func(rng *rand.Rand) error) {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			rng := rand.New(rand.NewSource(99))
			for {
				if err := read(rng); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	reader(func(rng *rand.Rand) error {
		q := fmt.Sprintf("select Clip where keywords contains %q or n >= 150", words[rng.Intn(len(words))])
		oids, err := db.Select(q)
		for i := 1; err == nil && i < len(oids); i++ {
			if oids[i] <= oids[i-1] {
				err = fmt.Errorf("%s: result not ascending and distinct at %d", q, i)
			}
		}
		return err
	})
	reader(func(rng *rand.Rand) error {
		oid := subs[rng.Intn(len(subs))]
		if _, err := db.GetAttr(oid, "keywords"); err != nil {
			return err
		}
		o, ok := db.Object(oid)
		if !ok {
			return fmt.Errorf("%v vanished", oid)
		}
		if _, had := o.Get("keywords"); !had {
			return fmt.Errorf("%v lost its keywords", oid)
		}
		return nil
	})
	writeWG.Wait()
	close(done)
	readWG.Wait()
	if t.Failed() {
		return
	}

	for _, word := range words {
		got, err := db.Select(fmt.Sprintf("select Clip where keywords contains %q", word))
		if err != nil {
			t.Fatal(err)
		}
		var want []schema.OID
		for oid, kw := range keywords {
			if strings.Contains(kw, word) {
				want = append(want, oid)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%q: got %d objects, want %d", word, len(got), len(want))
		}
	}
}
