package storage

// pool.go implements the store-level shared buffer pool behind
// Stream.ReadChunkTimeAt: residency is keyed by (segment, chunk), so
// co-admitted sessions of the same clip hit each other's chunks instead
// of each paying the device for bytes a neighbor staged moments ago.
//
// Determinism under parallel execution follows the engine's
// snapshot/commit playbook (DESIGN.md §15).  During a tick, lanes only
// READ committed residency; every mutation — the LRU touch behind a
// hit, the inserts behind a miss's fill — is staged as a poolOp tagged
// (pid, seq, round).  The first read of a later round commits every op
// of earlier rounds, applying them sorted by (pid, seq): pid is the
// pool-attach order of the stream and seq the stream's own program
// order, so the applied sequence is identical no matter which lanes
// staged first, and any EngineWorkers count leaves residency,
// eviction order and every counter byte-identical to serial.  Reads
// with round < 0 (no tick context) apply their ops immediately, which
// is exactly the retired per-stream LRU's behavior; the differential
// harness in pool_differential_test.go holds the pool to that oracle.
//
// The warm hit path — commit watermark check, one map probe, staging
// one touch — performs zero heap allocations (TestPoolHitAllocs): the
// LRU is intrusive (index-linked entries in a flat slice with a free
// list), staged ops land in a retained buffer, and the commit sorter is
// a pointer receiver so sort.Sort boxes no value.
//
// Capacity scales with attachment: the pool holds policy.Capacity
// chunks per attached stream, so one stream sees exactly the old
// per-stream capacity and N co-admitted streams share an N-times-larger
// pool.  Detaching shrinks it back, evicting coldest-first.

import (
	"sort"
	"sync"

	"avdb/internal/obs"
)

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
// Stream.CacheStats, pool-wide on Store.PoolStats.  Under scheduled
// (staged) reads, evictions happen at the round commit and are
// accounted to the pool aggregate, not to individual streams.
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
	Staged   int // residency operations of rounds not yet committed
}

// poolKey identifies one resident chunk store-wide.
type poolKey struct {
	seg   SegID
	chunk int
}

// poolOpKind distinguishes staged residency mutations.
type poolOpKind uint8

const (
	opTouch  poolOpKind = iota // LRU bump behind a hit
	opInsert                   // make resident (bump if already resident)
)

// poolOp is one staged residency mutation, ordered by (pid, seq) at
// commit so the applied sequence is submission-order independent.
type poolOp struct {
	pid   int64
	seq   int64
	round int64
	key   poolKey
	kind  poolOpKind
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

// opSorter orders staged ops by (pid, seq) for the commit; it is a
// retained field so sort.Sort gets an existing pointer and the commit
// allocates nothing.
type opSorter struct{ ops []poolOp }

func (s *opSorter) Len() int      { return len(s.ops) }
func (s *opSorter) Swap(i, j int) { s.ops[i], s.ops[j] = s.ops[j], s.ops[i] }
func (s *opSorter) Less(i, j int) bool {
	if s.ops[i].pid != s.ops[j].pid {
		return s.ops[i].pid < s.ops[j].pid
	}
	return s.ops[i].seq < s.ops[j].seq
}

// bufferPool is the store-level shared residency set.
type bufferPool struct {
	policy CachePolicy

	mu       sync.Mutex
	sink     obs.Sink
	entries  []poolEntry
	freeIdx  []int32
	resident map[poolKey]int32
	head     int32 // most recently used
	tail     int32 // least recently used
	streams  int   // attached streams
	capacity int   // policy.Capacity per attached stream
	nextPID  int64
	staged   []poolOp
	commit   opSorter // retained apply buffer for one commit
	flushed  int64    // rounds below this are applied
	agg      CacheStats
}

func newBufferPool(p CachePolicy, sink obs.Sink) *bufferPool {
	return &bufferPool{
		policy:   p,
		sink:     sink,
		resident: make(map[poolKey]int32, p.Capacity),
		head:     poolNil,
		tail:     poolNil,
	}
}

func (p *bufferPool) setSink(s obs.Sink) {
	p.mu.Lock()
	p.sink = s
	p.mu.Unlock()
}

// attach registers a stream, growing capacity; the returned pid orders
// the stream's staged ops against other streams'.
func (p *bufferPool) attach() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.streams++
	p.capacity = p.policy.Capacity * p.streams
	pid := p.nextPID
	p.nextPID++
	return pid
}

// detach unregisters a stream, shrinking capacity and evicting the
// coldest chunks beyond it.  The aggregate stats survive: closing a
// stream no longer discards its cache history.
func (p *bufferPool) detach() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.streams > 0 {
		p.streams--
	}
	p.capacity = p.policy.Capacity * p.streams
	if n := p.evictOverLocked(); n > 0 {
		p.agg.Evicted += int64(n)
		if p.sink != nil {
			p.sink.Count("storage.pool.evicted", int64(n))
		}
	}
}

// read consults committed residency for key at the given round,
// counting a hit and staging its LRU touch.  round >= 0 first commits
// every earlier round's staged ops; round < 0 applies the touch
// immediately (the no-tick-context demand path).  shared reports a hit
// on a chunk some other stream made resident.
func (p *bufferPool) read(pid int64, seq *int64, key poolKey, round int64) (hit, shared bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if round >= 0 {
		p.commitLocked(round)
	}
	i, ok := p.resident[key]
	if !ok {
		return false, false
	}
	shared = p.entries[i].pid != pid
	p.agg.Hits++
	if shared {
		p.agg.Shared++
	}
	if round >= 0 {
		p.staged = append(p.staged, poolOp{pid: pid, seq: *seq, round: round, key: key, kind: opTouch})
		*seq++
	} else {
		p.moveFrontLocked(i)
	}
	if p.sink != nil {
		p.sink.Count("storage.pool.hits", 1)
		if shared {
			p.sink.Count("storage.pool.shared_hits", 1)
		}
	}
	return true, shared
}

// touchOwn counts a hit on a chunk this stream staged earlier in the
// same round (its fill window): the insert is not committed yet, so the
// resident map cannot see it, but the bytes are as staged as any other
// prefetch.  The touch commits after the insert — same pid, later seq.
func (p *bufferPool) touchOwn(pid int64, seq *int64, key poolKey, round int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.agg.Hits++
	p.staged = append(p.staged, poolOp{pid: pid, seq: *seq, round: round, key: key, kind: opTouch})
	*seq++
	if p.sink != nil {
		p.sink.Count("storage.pool.hits", 1)
	}
}

// miss counts a demand read that paid the device.
func (p *bufferPool) miss() {
	p.mu.Lock()
	p.agg.Misses++
	sink := p.sink
	p.mu.Unlock()
	if sink != nil {
		sink.Count("storage.pool.misses", 1)
	}
}

// fill makes chunks idx..idx+lookahead of seg resident (bounded by
// limit, the segment's last chunk), staging the inserts at round >= 0
// or applying them immediately at round < 0.  It returns how many
// chunks beyond idx were newly staged and, in immediate mode, how many
// residents were evicted; staged-mode evictions happen at commit and
// are accounted to the store aggregate there.
func (p *bufferPool) fill(pid int64, seq *int64, seg SegID, idx, lookahead, limit int, round int64) (staged, evicted int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if round >= 0 {
		p.staged = append(p.staged, poolOp{pid: pid, seq: *seq, round: round, key: poolKey{seg: seg, chunk: idx}, kind: opInsert})
		*seq++
		for k := idx + 1; k <= idx+lookahead && k <= limit; k++ {
			if _, ok := p.resident[poolKey{seg: seg, chunk: k}]; ok {
				continue
			}
			p.staged = append(p.staged, poolOp{pid: pid, seq: *seq, round: round, key: poolKey{seg: seg, chunk: k}, kind: opInsert})
			*seq++
			staged++
		}
	} else {
		evicted += p.applyInsertLocked(poolKey{seg: seg, chunk: idx}, pid)
		for k := idx + 1; k <= idx+lookahead && k <= limit; k++ {
			if _, ok := p.resident[poolKey{seg: seg, chunk: k}]; ok {
				continue
			}
			evicted += p.applyInsertLocked(poolKey{seg: seg, chunk: k}, pid)
			staged++
		}
	}
	p.agg.Prefetched += int64(staged)
	p.agg.Evicted += int64(evicted)
	if p.sink != nil {
		if staged > 0 {
			p.sink.Count("storage.pool.prefetched", int64(staged))
		}
		if evicted > 0 {
			p.sink.Count("storage.pool.evicted", int64(evicted))
		}
	}
	return staged, evicted
}

// commitLocked applies every staged op of rounds below round, sorted by
// (pid, seq).  The caller's tick barrier guarantees those rounds are
// complete, so the applied set — and therefore residency and eviction
// order — is independent of which lane triggers the commit; p.mu is
// held.
func (p *bufferPool) commitLocked(round int64) {
	if round <= p.flushed {
		return
	}
	p.flushed = round
	if len(p.staged) == 0 {
		return
	}
	apply := p.commit.ops[:0]
	keep := 0
	for _, op := range p.staged {
		if op.round < round {
			apply = append(apply, op)
		} else {
			p.staged[keep] = op
			keep++
		}
	}
	p.staged = p.staged[:keep]
	p.commit.ops = apply
	sort.Sort(&p.commit)
	evicted := 0
	for _, op := range p.commit.ops {
		switch op.kind {
		case opTouch:
			if i, ok := p.resident[op.key]; ok {
				p.moveFrontLocked(i)
			}
		case opInsert:
			evicted += p.applyInsertLocked(op.key, op.pid)
		}
	}
	p.commit.ops = p.commit.ops[:0]
	if evicted > 0 {
		p.agg.Evicted += int64(evicted)
		if p.sink != nil {
			p.sink.Count("storage.pool.evicted", int64(evicted))
		}
	}
}

// applyInsertLocked makes key resident attributed to pid, evicting the
// coldest residents beyond capacity; a key already resident is bumped
// and keeps its original inserter.  Returns the evictions; p.mu held.
func (p *bufferPool) applyInsertLocked(key poolKey, pid int64) int {
	if i, ok := p.resident[key]; ok {
		p.moveFrontLocked(i)
		return 0
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
	p.resident[key] = i
	return p.evictOverLocked()
}

// evictOverLocked drops least-recently-used residents until the pool
// fits its capacity; p.mu is held.
func (p *bufferPool) evictOverLocked() int {
	evicted := 0
	for len(p.resident) > p.capacity {
		t := p.tail
		if t == poolNil {
			break
		}
		delete(p.resident, p.entries[t].key)
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

// moveFrontLocked bumps entry i to most recently used; p.mu is held.
func (p *bufferPool) moveFrontLocked(i int32) {
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

// residentCount reports how many chunks are resident.
func (p *bufferPool) residentCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.resident)
}

// stats snapshots the pool's aggregate behavior.
func (p *bufferPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		CacheStats: p.agg,
		Resident:   len(p.resident),
		Capacity:   p.capacity,
		Streams:    p.streams,
		Staged:     len(p.staged),
	}
}
