package query

import (
	"fmt"
	"testing"
	"time"

	"avdb/internal/media"
	"avdb/internal/schema"
)

func BenchmarkBTreeInsert(b *testing.B) {
	tr := newBTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.insert(schema.Int(int64(i%100000)), schema.OID(i+1))
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	tr := newBTree()
	for i := 0; i < 100000; i++ {
		tr.insert(schema.Int(int64(i)), schema.OID(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.lookup(schema.Int(int64(i % 100000))); len(got) != 1 {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkBTreeRangeScan(b *testing.B) {
	tr := newBTree()
	for i := 0; i < 100000; i++ {
		tr.insert(schema.Int(int64(i)), schema.OID(i+1))
	}
	lo, hi := schema.Int(40000), schema.Int(41000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.ascend(&lo, &hi, true, false, func(schema.Datum, []schema.OID) bool {
			n++
			return true
		})
		if n != 1000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

func BenchmarkQueryFullScan(b *testing.B) {
	_, _, eng := benchDB(b, 10000)
	q, err := Parse(`select SimpleNewscast where title = "60 Minutes"`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryHashIndexed(b *testing.B) {
	_, _, eng := benchDB(b, 10000)
	if _, err := eng.CreateIndex("SimpleNewscast", "title", HashIndex); err != nil {
		b.Fatal(err)
	}
	q, err := Parse(`select SimpleNewscast where title = "60 Minutes"`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryBTreeRange(b *testing.B) {
	_, _, eng := benchDB(b, 10000)
	if _, err := eng.CreateIndex("SimpleNewscast", "runtimeMin", BTreeIndex); err != nil {
		b.Fatal(err)
	}
	q, err := Parse(`select SimpleNewscast where runtimeMin < 25`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	src := `select SimpleNewscast where (title = "60 Minutes" and whenBroadcast = 1993-04-19) or runtimeMin > 30`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDB mirrors newsDB for testing.B.
func benchDB(b *testing.B, n int) (*schema.Schema, *schema.Store, *Engine) {
	b.Helper()
	s := schema.NewSchema()
	cls, err := s.Define("SimpleNewscast", "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
		{Name: "runtimeMin", Kind: schema.KindInt},
	})
	if err != nil {
		b.Fatal(err)
	}
	store := schema.NewStore()
	titles := []string{"60 Minutes", "Evening News", "Morning Report", "Tech Today"}
	for i := 0; i < n; i++ {
		o := store.NewObject(cls)
		if err := o.Set("title", schema.String(titles[i%len(titles)])); err != nil {
			b.Fatal(err)
		}
		if err := o.Set("runtimeMin", schema.Int(int64(20+i%40))); err != nil {
			b.Fatal(err)
		}
	}
	return s, store, NewEngine(s, store)
}

// BenchmarkQueryContainsScan is the unindexed keyword scan one catalog
// browse makes, over 8000 objects of the §4.1 Newscast shape.
func BenchmarkQueryContainsScan(b *testing.B) {
	eng := newscastCatalog(b, 8000)
	q, err := Parse(`select Newscast where keywords contains "sports"`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// newscastCatalog builds n objects of the §4.1 Newscast shape — title,
// source, date, a few keywords, a frame count, and unset media and tcomp
// attributes — and returns an unindexed engine over them.
func newscastCatalog(tb testing.TB, n int) *Engine {
	tb.Helper()
	s := schema.NewSchema()
	cls, err := s.Define("Newscast", "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
		{Name: "broadcastSource", Kind: schema.KindString},
		{Name: "whenBroadcast", Kind: schema.KindDate},
		{Name: "keywords", Kind: schema.KindString},
		{Name: "frames", Kind: schema.KindInt},
		{Name: "video", Kind: schema.KindMedia, MediaKind: media.KindVideo},
		{Name: "clip", Kind: schema.KindTComp, Tracks: []schema.TrackDef{
			{Name: "videoTrack", MediaKind: media.KindVideo},
			{Name: "englishTrack", MediaKind: media.KindAudio},
		}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	store := schema.NewStore()
	words := []string{"politics", "sports", "weather", "finance", "science", "arts", "local", "world"}
	sources := []string{"CBS", "NBC", "ABC", "PBS", "CNN"}
	base := time.Date(1993, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		o := store.NewObject(cls)
		must(tb, o.Set("title", schema.String(fmt.Sprintf("Newscast %d", i))))
		must(tb, o.Set("broadcastSource", schema.String(sources[i%len(sources)])))
		must(tb, o.Set("whenBroadcast", schema.Date(base.AddDate(0, 0, i/10))))
		must(tb, o.Set("keywords", schema.String(words[i%len(words)]+" "+words[(i/len(words))%len(words)])))
		must(tb, o.Set("frames", schema.Int(int64(100+i%50))))
	}
	return NewEngine(s, store)
}
