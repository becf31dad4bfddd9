package main

import (
	"fmt"
	"math/rand"
	"time"

	"avdb/internal/core"
	"avdb/internal/media"
	"avdb/internal/query"
	"avdb/internal/schema"
)

// Every workload keeps its library in one class, the paper's Newscast of
// §4.1, so the same browse action and the same recovery check run
// everywhere: title carries a hash index, whenBroadcast a B-tree, and
// keywords is deliberately unindexed.
const catalogClass = "Newscast"

var (
	catalogSources = []string{"CBS", "NBC", "ABC", "PBS", "CNN"}
	catalogWords   = []string{"politics", "sports", "weather", "finance", "science", "arts", "local", "world"}
	catalogEpoch   = time.Date(1993, 1, 1, 0, 0, 0, 0, time.UTC)
)

const (
	browseRangeDays = 3 // the 72-hour range of one browse action
	browsePoints    = 3 // hash point lookups per browse action
)

func defineCatalog(db *core.Database) error {
	if _, err := db.DefineClass(catalogClass, "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
		{Name: "broadcastSource", Kind: schema.KindString},
		{Name: "whenBroadcast", Kind: schema.KindDate},
		{Name: "keywords", Kind: schema.KindString},
		{Name: "frames", Kind: schema.KindInt},
		{Name: "video", Kind: schema.KindMedia, MediaKind: media.KindVideo},
		{Name: "clip", Kind: schema.KindTComp, Tracks: []schema.TrackDef{
			{Name: "videoTrack", MediaKind: media.KindVideo},
			{Name: "englishTrack", MediaKind: media.KindAudio},
			{Name: "subtitleTrack", MediaKind: media.KindText},
		}},
	}); err != nil {
		return err
	}
	return createCatalogIndexes(db)
}

// createCatalogIndexes builds every index of the catalog; recovery calls
// it again because indexes are volatile.
func createCatalogIndexes(db *core.Database) error {
	if err := db.CreateIndex(catalogClass, "title", query.HashIndex); err != nil {
		return err
	}
	return db.CreateIndex(catalogClass, "whenBroadcast", query.BTreeIndex)
}

// entry is the generator's own record of one catalog object: what the
// benchmark expects the database to answer, kept apart from the database.
type entry struct {
	title    string
	source   string
	day      int // days after catalogEpoch
	keywords string
	frames   int
	oid      schema.OID
	alive    bool
}

func (en *entry) when() time.Time { return catalogEpoch.AddDate(0, 0, en.day) }

// catalogModel is the expectation side of the browse and recovery
// checks.  Objects are created in model order, so OIDs ascend with the
// index and a scan in model order yields the ascending-OID order Select
// returns.
type catalogModel struct {
	entries []*entry
	days    int   // whenBroadcast spreads over [0, days)
	serial  int   // next title number
	writes  int64 // calls made so far that append to the database's log
}

// newEntry draws the metadata of one object.  All randomness comes from
// rng, which the caller seeded from the run seed.
func (m *catalogModel) newEntry(rng *rand.Rand, prefix string, frames int) *entry {
	a, b := rng.Intn(len(catalogWords)), rng.Intn(len(catalogWords))
	en := &entry{
		title:    fmt.Sprintf("%s-%06d", prefix, m.serial),
		source:   catalogSources[rng.Intn(len(catalogSources))],
		day:      rng.Intn(m.days),
		keywords: catalogWords[a] + " " + catalogWords[b],
		frames:   frames,
	}
	m.serial++
	return en
}

// insert creates the object for en in the database and files it in the
// model.  It is the five-scalar commit of the issue: NewObject plus five
// SetAttr calls, six logged writes.  r may be nil.
func (m *catalogModel) insert(db *core.Database, en *entry, r *recorder, parent int32) error {
	id := r.begin(parent, "schema", "NewObject")
	obj, err := db.NewObject(catalogClass)
	r.end(id)
	if err != nil {
		return err
	}
	en.oid = obj.OID()
	attrs := [...]struct {
		name string
		d    schema.Datum
	}{
		{"title", schema.String(en.title)},
		{"broadcastSource", schema.String(en.source)},
		{"whenBroadcast", schema.Date(en.when())},
		{"keywords", schema.String(en.keywords)},
		{"frames", schema.Int(int64(en.frames))},
	}
	for _, a := range attrs {
		id := r.begin(parent, "txn", "SetAttr")
		err := db.SetAttr(en.oid, a.name, a.d)
		r.end(id)
		if err != nil {
			return fmt.Errorf("bench: setting %s of %q: %w", a.name, en.title, err)
		}
	}
	en.alive = true
	m.entries = append(m.entries, en)
	m.writes += 1 + int64(len(attrs))
	return nil
}

// alive returns the live entries in model (= ascending OID) order.
func (m *catalogModel) live() []*entry {
	out := make([]*entry, 0, len(m.entries))
	for _, en := range m.entries {
		if en.alive {
			out = append(out, en)
		}
	}
	return out
}

// browseAction is one generated browse: a 72-hour range, an unindexed
// keyword scan and three point lookups, with the OIDs the model says
// each must return.
type browseAction struct {
	queries [2 + browsePoints]string
	want    [2 + browsePoints][]schema.OID
}

// newBrowse draws one action against the model's current state.
func (m *catalogModel) newBrowse(rng *rand.Rand) *browseAction {
	live := m.live()
	b := &browseAction{}
	lo := rng.Intn(m.days)
	hi := lo + browseRangeDays
	from, to := catalogEpoch.AddDate(0, 0, lo), catalogEpoch.AddDate(0, 0, hi)
	b.queries[0] = fmt.Sprintf("select %s where whenBroadcast >= %s and whenBroadcast < %s",
		catalogClass, from.Format("2006-01-02"), to.Format("2006-01-02"))
	word := catalogWords[rng.Intn(len(catalogWords))]
	b.queries[1] = fmt.Sprintf("select %s where keywords contains %q", catalogClass, word)
	for _, en := range live {
		if en.day >= lo && en.day < hi {
			b.want[0] = append(b.want[0], en.oid)
		}
		if containsWord(en.keywords, word) {
			b.want[1] = append(b.want[1], en.oid)
		}
	}
	for k := 0; k < browsePoints; k++ {
		en := live[rng.Intn(len(live))]
		b.queries[2+k] = fmt.Sprintf("select %s where title = %q", catalogClass, en.title)
		b.want[2+k] = []schema.OID{en.oid}
	}
	return b
}

func containsWord(keywords, word string) bool {
	for i := 0; i+len(word) <= len(keywords); i++ {
		if keywords[i:i+len(word)] == word {
			return true
		}
	}
	return false
}

// browseResult is what running one action observed.
type browseResult struct {
	ns      int64    // host time of the five Selects together
	partNS  [3]int64 // range, scan, mean of the three points
	results int      // OIDs returned in total
	ok      bool     // every Select returned exactly the expected OIDs
	err     error
}

// run executes the action's five Selects, timing them on sw, and checks
// the answers against the model.
func (b *browseAction) run(db *core.Database, sw *stopwatch, r *recorder, parent int32) browseResult {
	res := browseResult{ok: true}
	var got [2 + browsePoints][]schema.OID
	start := sw.now()
	last := start
	for i, q := range b.queries {
		id := r.begin(parent, "query", "Select")
		oids, err := db.Select(q)
		r.end(id)
		now := sw.now()
		if err != nil {
			res.err, res.ok = fmt.Errorf("bench: %s: %w", q, err), false
			return res
		}
		got[i] = oids
		switch {
		case i < 2:
			res.partNS[i] = now - last
		default:
			res.partNS[2] += (now - last) / browsePoints
		}
		last = now
	}
	res.ns = last - start
	for i := range got {
		res.results += len(got[i])
		if !sameOIDs(got[i], b.want[i]) {
			res.ok = false
		}
	}
	return res
}

func sameOIDs(a, b []schema.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
