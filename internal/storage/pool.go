package storage

// pool.go implements the store-level shared buffer pool behind
// Stream.ReadChunkTimeAt: residency is per (segment, chunk), so
// co-admitted sessions of the same clip hit each other's chunks instead
// of each paying the device for bytes a neighbor staged moments ago.
// A stream learns its segment's slot in the pool when it attaches; from
// then on every residency lookup is two slice indexes into that slot's
// dense chunk index, never a hash.  A slot lives while its segment has
// an attached stream or a resident chunk, and is recycled once no
// staged op can name it, so the pool holds no state for a segment it
// no longer serves.
//
// Which session's read counts as a hit is decided per round (DESIGN.md
// §15).  During a tick, streams only READ committed residency; every
// mutation — the LRU touch behind a hit, the inserts behind a miss's
// fill — of a read in the open round (the store's mark, the engine's
// current step) is staged in one op log.  When the engine closes the
// round (Store.CloseRound) the log commits in staging order; reads
// never commit.  So no session hits a chunk any session (itself
// included) staged in the same round; the engine steps sessions
// serially, so the staging order, and with it residency, eviction order
// and every counter, is the same on every run
// (TestEngineAudienceDeterminism).  The pool holds no round mark:
// Stream.ReadChunkTimeAt decides whether a read stages — its round is
// the store's open one and its pool the store's current one — and any
// other read — round < 0 (no tick context), a straggler below the mark,
// a round ahead of it, a read through a pool a policy change retired —
// applies its ops immediately, which is exactly the retired per-stream
// LRU's behavior; the differential harness in pool_differential_test.go
// holds the pool to that oracle.  A retired pool commits its log when
// it retires and never stages again, so nothing is staged that no close
// would commit.
//
// The pool has no lock of its own: every method runs with the store's
// lock held, taken once by the store entry point that calls it.
//
// The warm hit path — one index load, staging one touch — performs
// zero heap allocations (TestPoolHitAllocs): the
// LRU is intrusive (index-linked entries in a flat slice with a free
// list) and staged ops land in a retained buffer.
//
// Capacity scales with attachment: the pool holds policy.Capacity
// chunks per attached stream, so one stream sees exactly the old
// per-stream capacity and N co-admitted streams share an N-times-larger
// pool.  Detaching shrinks it back, evicting coldest-first.

import "avdb/internal/obs"

// CachePolicy configures chunk caching for streams opened from a store.
// The zero value disables caching, preserving the uncached read costs.
// A non-zero policy sizes the store's shared buffer pool: the pool
// holds Capacity chunks per attached stream.
type CachePolicy struct {
	Capacity  int // pool chunks per attached stream; <= 0 disables caching
	Lookahead int // chunks staged past each demand miss
}

// Enabled reports whether the policy caches at all.
func (p CachePolicy) Enabled() bool { return p.Capacity > 0 }

// CacheStats summarizes cache behavior — per stream on
// Stream.CacheStats, pool-wide on Store.PoolStats.  Under staged reads,
// evictions happen when the round closes and are accounted to the pool
// aggregate, not to individual streams.
type CacheStats struct {
	Hits       int64 // reads served from resident chunks at zero device cost
	Misses     int64 // demand reads that paid the device
	Shared     int64 // hits on chunks some other stream made resident
	Prefetched int64 // chunks staged by lookahead
	Evicted    int64 // chunks dropped to respect capacity
}

// PoolStats snapshots the shared buffer pool: the aggregate stats over
// every stream that ever attached (they survive stream close) plus the
// pool's current occupancy.
type PoolStats struct {
	CacheStats
	Resident int // chunks currently resident
	Capacity int // Capacity × attached streams
	Streams  int // streams currently attached
	Staged   int // residency operations of the open round
}

// poolKey identifies one chunk within a pool: seg is the segment's slot
// in the pool's segs, handed to every stream of the segment at attach.
type poolKey struct {
	seg   int32
	chunk int
}

// poolSeg is the residency index of one segment: at[chunk] is the
// chunk's entry index + 1, 0 while the chunk is not resident.  at is
// allocated at the segment's first insert, sized to its frame count
// (4 bytes a chunk); a chunk index past the end grows it.
type poolSeg struct {
	id     SegID
	frames int
	at     []int32
	refs   int // attached streams + resident chunks
}

// poolOpKind distinguishes staged residency mutations.
type poolOpKind uint8

const (
	opTouch  poolOpKind = iota // LRU bump behind a hit
	opInsert                   // make resident (bump if already resident)
)

// poolOp is one staged residency mutation; pid attributes an insert.
type poolOp struct {
	pid  int64
	key  poolKey
	kind poolOpKind
}

// poolEntry is one resident chunk in the intrusive LRU: entries live in
// a flat slice and link by index, so residency churn recycles slots
// through a free list instead of allocating nodes.
type poolEntry struct {
	key        poolKey
	pid        int64 // stream that made the chunk resident
	prev, next int32 // LRU links; poolNil terminates
}

const poolNil = int32(-1)

// bufferPool is the store-level shared residency set.
type bufferPool struct {
	policy   CachePolicy
	m        poolMetrics
	entries  []poolEntry
	freeIdx  []int32
	slots    map[SegID]int32 // segment -> its slot in segs; looked up only at attach
	segs     []poolSeg
	idle     []int32 // slots whose refs fell to 0 since the last release
	freeSlot []int32 // released slots, reused by attach
	resident int     // live entries
	head     int32   // most recently used
	tail     int32   // least recently used
	streams  int     // attached streams
	capacity int     // policy.Capacity per attached stream
	nextPID  int64
	staged   []poolOp // the open round's ops, in staging order
	agg      CacheStats
}

// poolMetrics holds an installed sink's storage.pool.* handles; all nil
// without one.
type poolMetrics struct {
	hits, sharedHits, misses, prefetched, evicted *obs.Counter
}

func newPoolMetrics(s obs.Sink) poolMetrics {
	if s == nil {
		return poolMetrics{}
	}
	return poolMetrics{
		hits:       s.Counter("storage.pool.hits"),
		sharedHits: s.Counter("storage.pool.shared_hits"),
		misses:     s.Counter("storage.pool.misses"),
		prefetched: s.Counter("storage.pool.prefetched"),
		evicted:    s.Counter("storage.pool.evicted"),
	}
}

// newBufferPool returns an empty pool sized by p.
func newBufferPool(p CachePolicy, sink obs.Sink) *bufferPool {
	return &bufferPool{
		policy: p,
		m:      newPoolMetrics(sink),
		slots:  make(map[SegID]int32),
		head:   poolNil,
		tail:   poolNil,
	}
}

// attach registers a stream of seg, growing capacity.  The returned pid
// tells the stream's hits on its own chunks from shared ones; slot is
// seg's slot, the seg of every poolKey the stream passes in.
func (p *bufferPool) attach(seg *Segment) (pid int64, slot int32) {
	p.streams++
	p.capacity = p.policy.Capacity * p.streams
	pid = p.nextPID
	p.nextPID++
	slot, ok := p.slots[seg.id]
	if !ok {
		if n := len(p.freeSlot); n > 0 {
			slot = p.freeSlot[n-1]
			p.freeSlot = p.freeSlot[:n-1]
		} else {
			slot = int32(len(p.segs))
			p.segs = append(p.segs, poolSeg{})
		}
		p.segs[slot] = poolSeg{id: seg.id, frames: seg.frames}
		p.slots[seg.id] = slot
	}
	p.segs[slot].refs++
	return pid, slot
}

// unref drops one reference to slot.
func (p *bufferPool) unref(slot int32) {
	if p.segs[slot].refs--; p.segs[slot].refs == 0 {
		p.idle = append(p.idle, slot)
	}
}

// releaseIdle recycles the slots of segments left with no stream and
// no resident chunk.  It waits until nothing is staged: a staged op
// names its slot, and must not land on another segment that reuses it.
func (p *bufferPool) releaseIdle() {
	if len(p.staged) > 0 {
		return
	}
	for _, slot := range p.idle {
		// A slot can be listed twice; its id is 0 (no segment) after the
		// first release.
		if ps := &p.segs[slot]; ps.refs == 0 && ps.id != 0 {
			delete(p.slots, ps.id)
			*ps = poolSeg{}
			p.freeSlot = append(p.freeSlot, slot)
		}
	}
	p.idle = p.idle[:0]
}

// lookup returns key's entry index, or poolNil when the chunk is not
// resident.
func (p *bufferPool) lookup(key poolKey) int32 {
	at := p.segs[key.seg].at
	if key.chunk >= len(at) {
		return poolNil
	}
	return at[key.chunk] - 1
}

// detach unregisters a stream of the segment in slot, shrinking
// capacity and evicting the coldest chunks beyond it.  The aggregate
// stats survive: closing a stream no longer discards its cache history.
func (p *bufferPool) detach(slot int32) {
	if p.streams > 0 {
		p.streams--
	}
	p.capacity = p.policy.Capacity * p.streams
	if n := p.evictOver(); n > 0 {
		p.agg.Evicted += int64(n)
		p.m.evicted.Add(int64(n))
	}
	p.unref(slot)
	p.releaseIdle()
}

// read consults committed residency for key, counting a hit and staging
// its LRU touch with stage, applying it immediately without.  shared
// reports a hit on a chunk some other stream made resident.
func (p *bufferPool) read(pid int64, key poolKey, stage bool) (hit, shared bool) {
	i := p.lookup(key)
	if i == poolNil {
		return false, false
	}
	shared = p.entries[i].pid != pid
	p.agg.Hits++
	if shared {
		p.agg.Shared++
	}
	if stage {
		p.staged = append(p.staged, poolOp{pid: pid, key: key, kind: opTouch})
	} else {
		p.moveFront(i)
	}
	p.m.hits.Add(1)
	if shared {
		p.m.sharedHits.Add(1)
	}
	return true, shared
}

// miss counts a demand read that paid the device.
func (p *bufferPool) miss() {
	p.agg.Misses++
	p.m.misses.Add(1)
}

// fill makes chunks idx..idx+lookahead of seg resident (bounded by
// limit, the segment's last chunk), staging the inserts with stage and
// applying them immediately without.  It returns how many chunks beyond
// idx were newly staged and, in immediate mode, how many residents were
// evicted; staged-mode evictions happen at commit and are accounted to
// the pool aggregate there.
func (p *bufferPool) fill(pid int64, seg int32, idx, lookahead, limit int, stage bool) (staged, evicted int) {
	evicted = p.insert(poolKey{seg: seg, chunk: idx}, pid, stage)
	for k := idx + 1; k <= idx+lookahead && k <= limit; k++ {
		key := poolKey{seg: seg, chunk: k}
		if p.lookup(key) != poolNil {
			continue
		}
		evicted += p.insert(key, pid, stage)
		staged++
	}
	p.agg.Prefetched += int64(staged)
	p.agg.Evicted += int64(evicted)
	if staged > 0 {
		p.m.prefetched.Add(int64(staged))
	}
	if evicted > 0 {
		p.m.evicted.Add(int64(evicted))
	}
	return staged, evicted
}

// closeRound commits the open round's staged ops in staging order.
// The caller — Store.CloseRound at the end of the engine's step, or
// SetCachePolicy retiring the pool — guarantees the round is complete.
func (p *bufferPool) closeRound() {
	evicted := 0
	for _, op := range p.staged {
		if op.kind == opInsert {
			evicted += p.applyInsert(op.key, op.pid)
		} else if i := p.lookup(op.key); i != poolNil {
			p.moveFront(i)
		}
	}
	p.staged = p.staged[:0]
	if evicted > 0 {
		p.agg.Evicted += int64(evicted)
		p.m.evicted.Add(int64(evicted))
	}
	if len(p.idle) > 0 {
		p.releaseIdle()
	}
}

// insert stages an insert of key attributed to pid, or with stage false
// applies it at once and returns the evictions.
func (p *bufferPool) insert(key poolKey, pid int64, stage bool) int {
	if stage {
		p.staged = append(p.staged, poolOp{pid: pid, key: key, kind: opInsert})
		return 0
	}
	return p.applyInsert(key, pid)
}

// applyInsert makes key resident attributed to pid, evicting the
// coldest residents beyond capacity; a key already resident is bumped
// and keeps its original inserter.  Returns the evictions.
func (p *bufferPool) applyInsert(key poolKey, pid int64) int {
	if i := p.lookup(key); i != poolNil {
		p.moveFront(i)
		return 0
	}
	ps := &p.segs[key.seg]
	if key.chunk >= len(ps.at) {
		at := make([]int32, max(ps.frames, key.chunk+1))
		copy(at, ps.at)
		ps.at = at
	}
	var i int32
	if n := len(p.freeIdx); n > 0 {
		i = p.freeIdx[n-1]
		p.freeIdx = p.freeIdx[:n-1]
	} else {
		p.entries = append(p.entries, poolEntry{})
		i = int32(len(p.entries) - 1)
	}
	p.entries[i] = poolEntry{key: key, pid: pid, prev: poolNil, next: p.head}
	if p.head != poolNil {
		p.entries[p.head].prev = i
	}
	p.head = i
	if p.tail == poolNil {
		p.tail = i
	}
	ps.at[key.chunk] = i + 1
	ps.refs++
	p.resident++
	return p.evictOver()
}

// evictOver drops least-recently-used residents until the pool fits its
// capacity.
func (p *bufferPool) evictOver() int {
	evicted := 0
	for p.resident > p.capacity {
		t := p.tail
		if t == poolNil {
			break
		}
		key := p.entries[t].key
		p.segs[key.seg].at[key.chunk] = 0
		p.unref(key.seg)
		p.resident--
		p.tail = p.entries[t].prev
		if p.tail != poolNil {
			p.entries[p.tail].next = poolNil
		} else {
			p.head = poolNil
		}
		p.entries[t] = poolEntry{prev: poolNil, next: poolNil}
		p.freeIdx = append(p.freeIdx, t)
		evicted++
	}
	return evicted
}

// moveFront bumps entry i to most recently used.
func (p *bufferPool) moveFront(i int32) {
	if p.head == i {
		return
	}
	e := &p.entries[i]
	if e.prev != poolNil {
		p.entries[e.prev].next = e.next
	}
	if e.next != poolNil {
		p.entries[e.next].prev = e.prev
	}
	if p.tail == i {
		p.tail = e.prev
	}
	e.prev, e.next = poolNil, p.head
	if p.head != poolNil {
		p.entries[p.head].prev = i
	}
	p.head = i
	if p.tail == poolNil {
		p.tail = i
	}
}

// stats snapshots the pool's aggregate behavior.
func (p *bufferPool) stats() PoolStats {
	return PoolStats{
		CacheStats: p.agg,
		Resident:   p.resident,
		Capacity:   p.capacity,
		Streams:    p.streams,
		Staged:     len(p.staged),
	}
}
