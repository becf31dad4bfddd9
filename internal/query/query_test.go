package query

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"avdb/internal/schema"
)

// newsDB builds a schema and store with n SimpleNewscast objects.
func newsDB(t testing.TB, n int) (*schema.Schema, *schema.Store, *Engine) {
	t.Helper()
	s := schema.NewSchema()
	if _, err := s.Define("MediaObject", "", []schema.AttrDef{
		{Name: "title", Kind: schema.KindString},
	}); err != nil {
		t.Fatal(err)
	}
	cls, err := s.Define("SimpleNewscast", "MediaObject", []schema.AttrDef{
		{Name: "broadcastSource", Kind: schema.KindString},
		{Name: "whenBroadcast", Kind: schema.KindDate},
		{Name: "runtimeMin", Kind: schema.KindInt},
		{Name: "rating", Kind: schema.KindFloat},
		{Name: "archived", Kind: schema.KindBool},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := schema.NewStore()
	titles := []string{"60 Minutes", "Evening News", "Morning Report", "Tech Today"}
	sources := []string{"CBS", "NBC", "ABC"}
	base := time.Date(1993, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		o := store.NewObject(cls)
		must(t, o.Set("title", schema.String(titles[i%len(titles)])))
		must(t, o.Set("broadcastSource", schema.String(sources[i%len(sources)])))
		must(t, o.Set("whenBroadcast", schema.Date(base.AddDate(0, 0, i))))
		must(t, o.Set("runtimeMin", schema.Int(int64(20+i%40))))
		must(t, o.Set("rating", schema.Float(float64(i%100)/10)))
		must(t, o.Set("archived", schema.Bool(i%2 == 0)))
	}
	return s, store, NewEngine(s, store)
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// run parses and executes a query string.
func run(e *Engine, src string) ([]schema.OID, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Run(q)
}

func TestLexBasics(t *testing.T) {
	toks, err := lex(`select SimpleNewscast where (title = "60 Minutes" and whenBroadcast = 1993-04-19)`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokKeyword, tokIdent, tokKeyword, tokLParen, tokIdent, tokOp, tokString,
		tokKeyword, tokIdent, tokOp, tokDate, tokRParen, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v, kind %d, want %d", i, toks[i], toks[i].kind, k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{`title = "unterminated`, `a ! b`, `x = 1993-04`, `x = @`} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) succeeded", bad)
		}
	}
}

func TestLexEscapedString(t *testing.T) {
	toks, err := lex(`x = "say \"hi\""`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].text != `say "hi"` {
		t.Errorf("escaped string = %q", toks[2].text)
	}
}

func TestParsePaperQuery(t *testing.T) {
	q, err := Parse(`select SimpleNewscast where (title = "60 Minutes" and whenBroadcast = 1993-04-19)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.ClassName != "SimpleNewscast" {
		t.Error("class wrong")
	}
	and, ok := q.Where.(*And)
	if !ok {
		t.Fatalf("Where = %T", q.Where)
	}
	if p := and.L.(*Pred); p.Attr != "title" || p.Op != OpEq {
		t.Error("left pred wrong")
	}
	if got := q.String(); !strings.Contains(got, "select SimpleNewscast where") {
		t.Errorf("String = %q", got)
	}
}

func TestParsePrecedenceAndNot(t *testing.T) {
	q, err := Parse(`select C where a = 1 or b = 2 and not c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := q.Where.(*Or)
	if !ok {
		t.Fatalf("top = %T, want Or (and binds tighter)", q.Where)
	}
	and, ok := or.R.(*And)
	if !ok {
		t.Fatalf("or.R = %T, want And", or.R)
	}
	if _, ok := and.R.(*Not); !ok {
		t.Fatalf("and.R = %T, want Not", and.R)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"select",
		"select 42",
		"where x = 1",
		"select C where",
		"select C where x",
		"select C where x =",
		"select C where (x = 1",
		"select C where x ~ 1",
		"select C where x = 1 extra",
		"select C where not",
		"select C where x contains",
		"select C where x = and",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestRunEqualityFullScan(t *testing.T) {
	_, store, eng := newsDB(t, 40)
	oids, err := run(eng, `select SimpleNewscast where title = "60 Minutes"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 10 {
		t.Errorf("matched %d, want 10", len(oids))
	}
	for _, oid := range oids {
		o, _ := store.Get(oid)
		if d, _ := o.Get("title"); d.Str() != "60 Minutes" {
			t.Errorf("object %v title = %v", oid, d.Format())
		}
	}
}

func TestRunComparisonsAndBooleans(t *testing.T) {
	_, _, eng := newsDB(t, 40)
	cases := map[string]int{
		`select SimpleNewscast`:                                                                   40,
		`select SimpleNewscast where runtimeMin < 25`:                                             5, // runtimes 20..59, one each
		`select SimpleNewscast where runtimeMin >= 55`:                                            5,
		`select SimpleNewscast where archived = true`:                                             20,
		`select SimpleNewscast where not archived = true`:                                         20,
		`select SimpleNewscast where title contains "News"`:                                       10,
		`select SimpleNewscast where rating > 3.45 and rating < 3.55`:                             1,
		`select SimpleNewscast where title = "Tech Today" or title = "60 Minutes"`:                20,
		`select SimpleNewscast where whenBroadcast < 1993-01-11`:                                  10,
		`select SimpleNewscast where whenBroadcast >= 1993-02-01 and whenBroadcast <= 1993-02-05`: 5,
		`select SimpleNewscast where broadcastSource != "CBS"`:                                    26,
	}
	for src, want := range cases {
		oids, err := run(eng, src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if len(oids) != want {
			t.Errorf("%s: matched %d, want %d", src, len(oids), want)
		}
	}
}

func TestRunTypeErrors(t *testing.T) {
	_, _, eng := newsDB(t, 4)
	for _, bad := range []string{
		`select Nope where title = "x"`,
		`select SimpleNewscast where nope = "x"`,
		`select SimpleNewscast where title = 42`,
		`select SimpleNewscast where runtimeMin = "x"`,
		`select SimpleNewscast where archived < true`,
		`select SimpleNewscast where runtimeMin contains "2"`,
		`select SimpleNewscast where whenBroadcast = "not-a-date"`,
		`select SimpleNewscast where rating = "x"`,
		`select SimpleNewscast where archived = 1`,
	} {
		if _, err := run(eng, bad); err == nil {
			t.Errorf("%s: succeeded", bad)
		}
	}
}

func TestUnsetAttributeNeverMatches(t *testing.T) {
	s := schema.NewSchema()
	cls, err := s.Define("Sparse", "", []schema.AttrDef{{Name: "x", Kind: schema.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	store := schema.NewStore()
	store.NewObject(cls) // x unset
	eng := NewEngine(s, store)
	for _, src := range []string{
		`select Sparse where x = 0`,
		`select Sparse where x != 0`,
		`select Sparse where x < 100`,
	} {
		oids, err := run(eng, src)
		if err != nil {
			t.Fatal(err)
		}
		if len(oids) != 0 {
			t.Errorf("%s matched unset attribute", src)
		}
	}
}

func TestSubclassExtent(t *testing.T) {
	s, store, _ := newsDB(t, 3)
	eng := NewEngine(s, store)
	// Querying the root class sees SimpleNewscast instances.
	oids, err := run(eng, `select MediaObject where title contains "Minutes"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 1 {
		t.Errorf("root-class query matched %d", len(oids))
	}
}

func TestHashIndexUsedForEquality(t *testing.T) {
	_, _, eng := newsDB(t, 100)
	if _, err := eng.CreateIndex("SimpleNewscast", "title", HashIndex); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(`select SimpleNewscast where title = "60 Minutes" and runtimeMin > 0`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.IndexUsed != "SimpleNewscast.title" {
		t.Errorf("plan = %v", plan)
	}
	oids, err := eng.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 25 {
		t.Errorf("index scan matched %d, want 25", len(oids))
	}
	// The same query without the index gives identical results.
	eng2 := func() *Engine { _, _, e := newsDB(t, 100); return e }()
	plain, err := run(eng2, `select SimpleNewscast where title = "60 Minutes" and runtimeMin > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(oids) {
		t.Errorf("index and scan disagree: %d vs %d", len(oids), len(plain))
	}
}

func TestBTreeIndexServesRanges(t *testing.T) {
	_, _, eng := newsDB(t, 60)
	if _, err := eng.CreateIndex("SimpleNewscast", "whenBroadcast", BTreeIndex); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(`select SimpleNewscast where whenBroadcast < 1993-01-08`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.IndexUsed == "" {
		t.Fatalf("range plan did not use index: %v", plan)
	}
	oids, err := eng.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 7 {
		t.Errorf("matched %d, want 7", len(oids))
	}
	// Hash indexes do not serve ranges: planner must skip them.
	_, _, eng2 := newsDB(t, 10)
	if _, err := eng2.CreateIndex("SimpleNewscast", "runtimeMin", HashIndex); err != nil {
		t.Fatal(err)
	}
	q2, _ := Parse(`select SimpleNewscast where runtimeMin < 25`)
	plan2, err := eng2.Prepare(q2)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.IndexUsed != "" {
		t.Errorf("hash index chosen for range: %v", plan2)
	}
	if !strings.Contains(plan2.String(), "full scan") {
		t.Errorf("plan String = %q", plan2.String())
	}
}

// TestBTreeRangeMatchesFullScan holds the index path to the full scan's
// answers over random ranges on one attribute: one- and two-sided, open
// and closed at either end, bounds in either order in the query, empty
// (crossed or touching-but-open) ranges included.  A two-sided range
// must be served by one scan bounded at both ends.
func TestBTreeRangeMatchesFullScan(t *testing.T) {
	const n = 200
	_, _, indexed := newsDB(t, n)
	_, _, plain := newsDB(t, n)
	if _, err := indexed.CreateIndex("SimpleNewscast", "runtimeMin", BTreeIndex); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	lower, upper := []string{">", ">="}, []string{"<", "<="}
	for i := 0; i < 400; i++ {
		// runtimeMin spans 20..59; bounds stray past both ends and cross.
		lo := fmt.Sprintf("runtimeMin %s %d", lower[rng.Intn(2)], 15+rng.Intn(50))
		hi := fmt.Sprintf("runtimeMin %s %d", upper[rng.Intn(2)], 15+rng.Intn(50))
		var where string
		switch rng.Intn(4) {
		case 0:
			where = lo
		case 1:
			where = hi
		case 2:
			where = lo + " and " + hi
		default:
			where = hi + " and archived = true and " + lo
		}
		src := "select SimpleNewscast where " + where
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := indexed.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		twoSided := strings.Count(where, "runtimeMin") == 2
		if plan.IndexUsed != "SimpleNewscast.runtimeMin" || (plan.IndexBound != nil) != twoSided {
			t.Fatalf("%s: plan = %v", src, plan)
		}
		if twoSided && !strings.Contains(plan.String(), plan.IndexPred.String()+" and "+plan.IndexBound.String()) {
			t.Errorf("%s: plan String %q does not show both bounds", src, plan)
		}
		got, err := indexed.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run(plain, src)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: index path %v, full scan %v", src, got, want)
		}
	}
	// The closed scan reads only the range: a two-sided plan must hand
	// Execute exactly the keys inside it.
	q, _ := Parse("select SimpleNewscast where runtimeMin >= 30 and runtimeMin < 32")
	plan, err := indexed.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := indexed.Index("SimpleNewscast", "runtimeMin")
	cands, err := indexCandidates(ix, plan.IndexPred, plan.IndexBound)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2*n/40 {
		t.Errorf("closed range read %d candidates, want %d", len(cands), 2*n/40)
	}
}

func TestCreateIndexValidation(t *testing.T) {
	_, _, eng := newsDB(t, 5)
	if _, err := eng.CreateIndex("Nope", "title", HashIndex); err == nil {
		t.Error("index on missing class accepted")
	}
	if _, err := eng.CreateIndex("SimpleNewscast", "nope", HashIndex); err == nil {
		t.Error("index on missing attribute accepted")
	}
	if _, err := eng.CreateIndex("SimpleNewscast", "archived", BTreeIndex); err == nil {
		t.Error("btree on bool accepted")
	}
	if _, err := eng.CreateIndex("SimpleNewscast", "title", HashIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateIndex("SimpleNewscast", "title", HashIndex); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, ok := eng.Index("SimpleNewscast", "title"); !ok {
		t.Error("Index lookup failed")
	}
}

func TestIndexMaintenance(t *testing.T) {
	s, store, eng := newsDB(t, 10)
	if _, err := eng.CreateIndex("SimpleNewscast", "title", HashIndex); err != nil {
		t.Fatal(err)
	}
	cls, _ := s.Class("SimpleNewscast")
	o := store.NewObject(cls)
	must(t, o.Set("title", schema.String("Late Edition")))
	eng.OnSet(o, "title", nil, schema.String("Late Edition"))

	oids, err := run(eng, `select SimpleNewscast where title = "Late Edition"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 1 || oids[0] != o.OID() {
		t.Errorf("new object not indexed: %v", oids)
	}
	// Update: index must follow.
	old := schema.String("Late Edition")
	must(t, o.Set("title", schema.String("Final Edition")))
	eng.OnSet(o, "title", &old, schema.String("Final Edition"))
	oids, _ = run(eng, `select SimpleNewscast where title = "Late Edition"`)
	if len(oids) != 0 {
		t.Error("stale index entry after update")
	}
	oids, _ = run(eng, `select SimpleNewscast where title = "Final Edition"`)
	if len(oids) != 1 {
		t.Error("updated value not indexed")
	}
	// Delete.
	eng.OnDelete(o)
	must(t, store.Delete(o.OID()))
	oids, _ = run(eng, `select SimpleNewscast where title = "Final Edition"`)
	if len(oids) != 0 {
		t.Error("deleted object still indexed")
	}
}

func TestIndexAndScanAgreeProperty(t *testing.T) {
	_, _, scanEng := newsDB(t, 200)
	_, _, idxEng := newsDB(t, 200)
	if _, err := idxEng.CreateIndex("SimpleNewscast", "runtimeMin", BTreeIndex); err != nil {
		t.Fatal(err)
	}
	ops := []string{"=", "<", "<=", ">", ">="}
	f := func(opIdx uint8, val uint8) bool {
		src := fmt.Sprintf(`select SimpleNewscast where runtimeMin %s %d`, ops[int(opIdx)%len(ops)], int(val)%70)
		a, err1 := run(scanEng, src)
		b, err2 := run(idxEng, src)
		if (err1 == nil) != (err2 == nil) || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBTreeInsertLookupRemove(t *testing.T) {
	tr := newBTree()
	const n = 2000
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for _, k := range perm {
		tr.insert(schema.Int(int64(k)), schema.OID(k+1))
		// Duplicates share a key.
		tr.insert(schema.Int(int64(k)), schema.OID(k+100_000))
	}
	if tr.keys != n {
		t.Fatalf("keys = %d, want %d", tr.keys, n)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if d := tr.depth(); d < 2 {
		t.Errorf("2000 keys produced depth %d", d)
	}
	if got := tr.lookup(schema.Int(1234)); len(got) != 2 {
		t.Errorf("lookup = %v", got)
	}
	if got := tr.lookup(schema.Int(99999)); got != nil {
		t.Error("missing key found")
	}
	// Remove one OID: key survives; remove the second: key goes.
	if !tr.remove(schema.Int(1234), 1235) {
		t.Fatal("remove failed")
	}
	if got := tr.lookup(schema.Int(1234)); len(got) != 1 {
		t.Errorf("after first remove: %v", got)
	}
	if !tr.remove(schema.Int(1234), 101_234) {
		t.Fatal("second remove failed")
	}
	if got := tr.lookup(schema.Int(1234)); got != nil {
		t.Error("key survived emptying")
	}
	if tr.remove(schema.Int(1234), 42) {
		t.Error("remove of absent oid succeeded")
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeRandomDeleteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newBTree()
	alive := make(map[int]bool)
	for i := 0; i < 3000; i++ {
		k := rng.Intn(400)
		if alive[k] {
			if !tr.remove(schema.Int(int64(k)), schema.OID(k+1)) {
				t.Fatalf("remove of live key %d failed", k)
			}
			alive[k] = false
		} else {
			tr.insert(schema.Int(int64(k)), schema.OID(k+1))
			alive[k] = true
		}
		if i%250 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	for k, live := range alive {
		got := tr.lookup(schema.Int(int64(k)))
		if live && len(got) != 1 {
			t.Errorf("live key %d lookup = %v", k, got)
		}
		if !live && got != nil {
			t.Errorf("dead key %d lookup = %v", k, got)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeAscendRange(t *testing.T) {
	tr := newBTree()
	for i := 0; i < 100; i++ {
		tr.insert(schema.Int(int64(i)), schema.OID(i+1))
	}
	lo, hi := schema.Int(10), schema.Int(20)
	var keys []int64
	tr.ascend(&lo, &hi, true, false, func(d schema.Datum, _ []schema.OID) bool {
		keys = append(keys, d.IntVal())
		return true
	})
	if len(keys) != 10 || keys[0] != 10 || keys[9] != 19 {
		t.Errorf("range [10,20) = %v", keys)
	}
	// Early termination by the visitor.
	count := 0
	tr.ascend(nil, nil, true, true, func(schema.Datum, []schema.OID) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("visitor termination at %d", count)
	}
}

func TestOpAndIndexKindStrings(t *testing.T) {
	if OpEq.String() != "=" || OpContains.String() != "contains" {
		t.Error("op names wrong")
	}
	if Op(99).String() != "Op(99)" {
		t.Error("out-of-range op name wrong")
	}
	if HashIndex.String() != "hash" || BTreeIndex.String() != "btree" {
		t.Error("index kind names wrong")
	}
	if IndexKind(9).String() != "IndexKind(9)" {
		t.Error("out-of-range index kind name wrong")
	}
}

// TestFullScanAllocsIndependentOfExtent pins that a full scan walks the
// extent in place: a contains that matches nothing allocates the same
// over 1000 objects as over 8000 — no copy of the extent, no sort.
func TestFullScanAllocsIndependentOfExtent(t *testing.T) {
	allocs := func(n int) float64 {
		eng := newscastCatalog(t, n)
		q, err := Parse(`select Newscast where keywords contains "nowhere"`)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if oids, err := eng.Execute(plan); err != nil || len(oids) != 0 {
				t.Fatalf("matched %v, %v", oids, err)
			}
		})
	}
	small, large := allocs(1000), allocs(8000)
	if small != large {
		t.Errorf("scan allocates %v over 1000 objects and %v over 8000", small, large)
	}
}

// TestScanAndIndexesAgreeOnFloats holds a full scan, a hash index and a
// B-tree index to one answer over floats that include NaN, ±0 and ±Inf,
// for every operator and for literals drawn from the same edges.  NaN
// satisfies no ordering and no equality, so the indexes leave it out;
// -0 equals +0, so the hash key folds the two.
func TestScanAndIndexesAgreeOnFloats(t *testing.T) {
	edges := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, -1, 0.5, 2.5}
	lits := []string{"NaN", "-0", "0", "+Inf", "-Inf", "1", "-1", "0.5", "2.5", "2"}
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	rng := rand.New(rand.NewSource(11))
	draw := func() float64 {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return float64(rng.Intn(9)-4) / 2
	}
	for round := 0; round < 30; round++ {
		s := schema.NewSchema()
		cls, err := s.Define("F", "", []schema.AttrDef{{Name: "x", Kind: schema.KindFloat}})
		if err != nil {
			t.Fatal(err)
		}
		store := schema.NewStore()
		scan, hash, tree := NewEngine(s, store), NewEngine(s, store), NewEngine(s, store)
		objs := make([]*schema.Object, 40)
		for i := range objs {
			objs[i] = store.NewObject(cls)
			if i%8 != 7 { // some stay unset
				must(t, objs[i].Set("x", schema.Float(draw())))
			}
		}
		// Build the indexes over the first values, then maintain them
		// through overwrites and new objects.
		if _, err := hash.CreateIndex("F", "x", HashIndex); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.CreateIndex("F", "x", BTreeIndex); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			o := objs[rng.Intn(len(objs))]
			if i%4 == 0 {
				o = store.NewObject(cls)
				objs = append(objs, o)
			}
			var old *schema.Datum
			if prev, had := o.Get("x"); had {
				old = &prev
			}
			d := schema.Float(draw())
			must(t, o.Set("x", d))
			hash.OnSet(o, "x", old, d)
			tree.OnSet(o, "x", old, d)
		}
		for _, op := range ops {
			for _, lit := range lits {
				q := &Query{ClassName: "F", Where: &Pred{Attr: "x", Op: op, Lit: Literal{kind: tokNumber, text: lit}}}
				want, err := scan.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range []struct {
					name    string
					eng     *Engine
					indexed bool
				}{
					{"hash", hash, op == OpEq},
					{"btree", tree, op != OpNe},
				} {
					plan, err := e.eng.Prepare(q)
					if err != nil {
						t.Fatal(err)
					}
					if (plan.IndexUsed != "") != e.indexed {
						t.Fatalf("round %d: %s plan for x %v %s = %v", round, e.name, op, lit, plan)
					}
					got, err := e.eng.Execute(plan)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("round %d: x %v %s: %s index %v, full scan %v", round, op, lit, e.name, got, want)
					}
				}
			}
		}
	}
}
