package query

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"avdb/internal/schema"
)

// IndexKind selects an index implementation.
type IndexKind int

// The index kinds: hash indexes serve equality, B-tree indexes serve
// equality and range predicates.
const (
	HashIndex IndexKind = iota
	BTreeIndex
)

// String returns the kind's name.
func (k IndexKind) String() string {
	switch k {
	case HashIndex:
		return "hash"
	case BTreeIndex:
		return "btree"
	}
	return fmt.Sprintf("IndexKind(%d)", int(k))
}

// Index is an attribute index over a class extent.
type Index struct {
	class *schema.Class
	attr  string
	kind  IndexKind

	mu   sync.RWMutex
	hash map[hashKey][]schema.OID
	tree *btree
}

// hashKey is a datum as a map key: its kind, so values of different
// kinds never collide, and its string or its value as one 8-byte word,
// with -0 folded into +0 so that the key agrees with Datum.Equal.
type hashKey struct {
	kind schema.AttrKind
	n    uint64
	s    string
}

func keyOf(d schema.Datum) hashKey {
	k := hashKey{kind: d.Kind(), s: d.Str()}
	switch d.Kind() {
	case schema.KindInt:
		k.n = uint64(d.IntVal())
	case schema.KindFloat:
		if f := d.FloatVal(); f != 0 {
			k.n = math.Float64bits(f)
		}
	case schema.KindBool:
		if d.BoolVal() {
			k.n = 1
		}
	case schema.KindDate:
		k.n = uint64(d.DateVal().Unix())
	}
	return k
}

// isNaN reports a NaN float.  Indexes leave NaN out: it satisfies none
// of the predicates an index serves (=, <, <=, >, >=).
func isNaN(d *schema.Datum) bool {
	return d != nil && d.Kind() == schema.KindFloat && math.IsNaN(d.FloatVal())
}

// Add indexes one object's value of the attribute.
func (ix *Index) Add(oid schema.OID, d schema.Datum) {
	if isNaN(&d) {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.kind == HashIndex {
		k := keyOf(d)
		ix.hash[k] = append(ix.hash[k], oid)
		return
	}
	ix.tree.insert(d, oid)
}

// Remove drops one object's entry.
func (ix *Index) Remove(oid schema.OID, d schema.Datum) {
	if isNaN(&d) {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.kind == HashIndex {
		k := keyOf(d)
		oids := ix.hash[k]
		for i, id := range oids {
			if id == oid {
				ix.hash[k] = append(oids[:i], oids[i+1:]...)
				break
			}
		}
		if len(ix.hash[k]) == 0 {
			delete(ix.hash, k)
		}
		return
	}
	ix.tree.remove(d, oid)
}

// Lookup returns the OIDs with the exact value (none for NaN, which
// equals nothing).
func (ix *Index) Lookup(d schema.Datum) []schema.OID {
	if isNaN(&d) {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.kind == HashIndex {
		return append([]schema.OID(nil), ix.hash[keyOf(d)]...)
	}
	return ix.tree.lookup(d)
}

// Range returns the OIDs with values in the given bounds (nil = open),
// in key order; a NaN bound admits nothing.  Only B-tree indexes
// support ranges.
func (ix *Index) Range(lo, hi *schema.Datum, loIncl, hiIncl bool) ([]schema.OID, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.kind != BTreeIndex {
		return nil, fmt.Errorf("%w: %v index on %s.%s cannot serve ranges", ErrIndex, ix.kind, ix.class.Name(), ix.attr)
	}
	if isNaN(lo) || isNaN(hi) {
		return nil, nil
	}
	var out []schema.OID
	ix.tree.ascend(lo, hi, loIncl, hiIncl, func(_ schema.Datum, oids []schema.OID) bool {
		out = append(out, oids...)
		return true
	})
	return out, nil
}

// Engine executes queries over a schema and store, using any indexes the
// administrator has created.
type Engine struct {
	schema *schema.Schema
	store  *schema.Store

	mu      sync.RWMutex
	indexes map[string]*Index // "Class.attr"
}

// NewEngine returns a query engine.
func NewEngine(s *schema.Schema, store *schema.Store) *Engine {
	return &Engine{schema: s, store: store, indexes: make(map[string]*Index)}
}

func indexName(class, attr string) string { return class + "." + attr }

// CreateIndex builds an index over the class's current extent (including
// subclasses) and registers it for maintenance and planning.
func (e *Engine) CreateIndex(className, attr string, kind IndexKind) (*Index, error) {
	c, ok := e.schema.Class(className)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoClass, className)
	}
	def, ok := c.Attr(attr)
	if !ok {
		return nil, fmt.Errorf("%w: class %s has no attribute %q", ErrNoAttr, className, attr)
	}
	switch def.Kind {
	case schema.KindString, schema.KindInt, schema.KindFloat, schema.KindDate, schema.KindBool:
	default:
		return nil, fmt.Errorf("%w: cannot index %v attribute %q", ErrType, def.Kind, attr)
	}
	if kind == BTreeIndex && def.Kind == schema.KindBool {
		return nil, fmt.Errorf("%w: boolean attributes take hash indexes only", ErrType)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	name := indexName(className, attr)
	if _, dup := e.indexes[name]; dup {
		return nil, fmt.Errorf("%w: index %s already exists", ErrIndex, name)
	}
	ix := &Index{class: c, attr: attr, kind: kind}
	if kind == HashIndex {
		ix.hash = make(map[hashKey][]schema.OID)
	} else {
		ix.tree = newBTree()
	}
	// Inside Scan the store's read lock is held: read through Match,
	// never Get, which would take it again and deadlock behind a
	// waiting writer.
	slot, _ := c.Slot(attr)
	var oid schema.OID
	add := func(d *schema.Datum) bool {
		ix.Add(oid, *d)
		return true
	}
	e.store.Scan(c, func(o *schema.Object) {
		oid = o.OID()
		o.Match(slot, add)
	})
	e.indexes[name] = ix
	return ix, nil
}

// Index returns a registered index.
func (e *Engine) Index(className, attr string) (*Index, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ix, ok := e.indexes[indexName(className, attr)]
	return ix, ok
}

// OnSet maintains indexes after an attribute assignment; old is the
// previous value if there was one.
func (e *Engine) OnSet(o *schema.Object, attr string, old *schema.Datum, d schema.Datum) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, ix := range e.indexes {
		if ix.attr != attr || !o.Class().IsSubclassOf(ix.class) {
			continue
		}
		if old != nil {
			ix.Remove(o.OID(), *old)
		}
		ix.Add(o.OID(), d)
	}
}

// OnDelete removes an object from every index.
func (e *Engine) OnDelete(o *schema.Object) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, ix := range e.indexes {
		if !o.Class().IsSubclassOf(ix.class) {
			continue
		}
		if d, ok := o.Get(ix.attr); ok {
			ix.Remove(o.OID(), d)
		}
	}
}

// Plan describes how a query will execute, for inspection and tests.
type Plan struct {
	Class     *schema.Class
	Where     Expr
	IndexUsed string // "Class.attr" or "" for a full scan
	IndexPred *Pred  // the predicate served by the index
	// IndexBound closes a B-tree range: when IndexPred bounds the
	// attribute on one side and the AND chain also bounds it on the
	// other, the same scan serves both and stops at the far end.
	IndexBound *Pred
}

// String summarizes the plan.
func (p *Plan) String() string {
	scan := "full scan"
	if p.IndexUsed != "" {
		scan = fmt.Sprintf("index scan on %s (%v)", p.IndexUsed, p.IndexPred)
		if p.IndexBound != nil {
			scan = fmt.Sprintf("index scan on %s (%v and %v)", p.IndexUsed, p.IndexPred, p.IndexBound)
		}
	}
	if p.Where == nil {
		return fmt.Sprintf("select %s: extent scan", p.Class.Name())
	}
	return fmt.Sprintf("select %s where %v: %s", p.Class.Name(), p.Where, scan)
}

// Prepare type-checks a query and picks an access path.
func (e *Engine) Prepare(q *Query) (*Plan, error) {
	c, ok := e.schema.Class(q.ClassName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoClass, q.ClassName)
	}
	p := &Plan{Class: c, Where: q.Where}
	if q.Where == nil {
		return p, nil
	}
	if err := q.Where.check(c); err != nil {
		return nil, err
	}
	// Use an index for one predicate of the top-level AND chain — or,
	// on a B-tree, for the two that bound one attribute from both sides.
	chain := andChain(q.Where)
	for i, pred := range chain {
		ix, ok := e.Index(c.Name(), pred.Attr)
		if !ok {
			continue
		}
		switch pred.Op {
		case OpEq:
			p.IndexUsed = indexName(c.Name(), pred.Attr)
			p.IndexPred = pred
			return p, nil
		case OpLt, OpLe, OpGt, OpGe:
			if ix.kind == BTreeIndex {
				p.IndexUsed = indexName(c.Name(), pred.Attr)
				p.IndexPred = pred
				for _, other := range chain[i+1:] {
					if other.Attr == pred.Attr && rangeSide(other.Op) == -rangeSide(pred.Op) {
						p.IndexBound = other
						break
					}
				}
				return p, nil
			}
		}
	}
	return p, nil
}

// rangeSide is +1 for an operator that bounds an attribute from below,
// -1 for one that bounds it from above, 0 for the rest.
func rangeSide(op Op) int {
	switch op {
	case OpGt, OpGe:
		return 1
	case OpLt, OpLe:
		return -1
	}
	return 0
}

// andChain collects the predicates reachable through top-level ANDs.
func andChain(e Expr) []*Pred {
	switch x := e.(type) {
	case *Pred:
		return []*Pred{x}
	case *And:
		return append(andChain(x.L), andChain(x.R)...)
	}
	return nil
}

// Run parses nothing: it executes an already-parsed query, returning
// matching OIDs in ascending order.
func (e *Engine) Run(q *Query) ([]schema.OID, error) {
	plan, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return e.Execute(plan)
}

// Execute runs a prepared plan.  A full scan walks the class extent in
// OID order and needs no sort; index candidates come in key order and
// are sorted at the end.
func (e *Engine) Execute(plan *Plan) ([]schema.OID, error) {
	var out []schema.OID
	if plan.IndexUsed == "" {
		e.store.Scan(plan.Class, func(o *schema.Object) {
			if plan.Where == nil || plan.Where.eval(o) {
				out = append(out, o.OID())
			}
		})
		return out, nil
	}
	ix, ok := e.Index(plan.Class.Name(), plan.IndexPred.Attr)
	if !ok {
		return nil, fmt.Errorf("%w: plan references missing index %s", ErrIndex, plan.IndexUsed)
	}
	candidates, err := indexCandidates(ix, plan.IndexPred, plan.IndexBound)
	if err != nil {
		return nil, err
	}
	e.store.Visit(candidates, func(o *schema.Object) {
		if o.Class().IsSubclassOf(plan.Class) && plan.Where.eval(o) {
			out = append(out, o.OID())
		}
	})
	slices.Sort(out)
	return out, nil
}

// indexCandidates reads the index: a point lookup, or one range scan
// bounded by pred and, when the plan found one, the opposite bound.
func indexCandidates(ix *Index, pred, bound *Pred) ([]schema.OID, error) {
	if pred.Op == OpEq {
		return ix.Lookup(pred.datum), nil
	}
	var lo, hi *schema.Datum
	var loIncl, hiIncl bool
	for _, p := range []*Pred{pred, bound} {
		if p == nil {
			continue
		}
		switch rangeSide(p.Op) {
		case 1:
			lo, loIncl = &p.datum, p.Op == OpGe
		case -1:
			hi, hiIncl = &p.datum, p.Op == OpLe
		default:
			return nil, fmt.Errorf("%w: operator %v cannot use an index", ErrIndex, p.Op)
		}
	}
	return ix.Range(lo, hi, loIncl, hiIncl)
}
