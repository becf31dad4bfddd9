package storage

// pool_differential_test.go holds the shared buffer pool to the retired
// per-stream LRU cache.  The oracle below is the pre-pool chunkCache
// (container/list LRU + lookahead fill) reproduced verbatim; the pool
// must be behavior-identical to it for single-session streams on the
// demand path (round < 0, where ops apply immediately) for ANY access
// pattern, and on the staged path (round >= 0) for sequential playback,
// the workload rounds model.

import (
	"container/list"
	"math/rand"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/device"
	"avdb/internal/media"
)

// lruOracle is the retired per-stream chunk cache: front of order is
// most recently used, insert evicts from the back past Capacity, and a
// miss fills idx..idx+lookahead with residency checked after each
// insert (so a fill can re-stage a chunk it just evicted).
type lruOracle struct {
	policy   CachePolicy
	order    *list.List
	resident map[int]*list.Element
	stats    CacheStats
}

func newLRUOracle(p CachePolicy) *lruOracle {
	return &lruOracle{
		policy:   p,
		order:    list.New(),
		resident: make(map[int]*list.Element, p.Capacity),
	}
}

func (c *lruOracle) insert(idx int) int {
	if el, ok := c.resident[idx]; ok {
		c.order.MoveToFront(el)
		return 0
	}
	c.resident[idx] = c.order.PushFront(idx)
	evicted := 0
	for c.order.Len() > c.policy.Capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.resident, back.Value.(int))
		evicted++
	}
	return evicted
}

// read performs one chunk read against the oracle, mirroring the
// retired ReadChunkTime cache logic, and reports whether it hit.
func (c *lruOracle) read(idx, limit int) bool {
	if el, ok := c.resident[idx]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	evicted := c.insert(idx)
	staged := 0
	for k := idx + 1; k <= idx+c.policy.Lookahead && k <= limit; k++ {
		if _, ok := c.resident[k]; !ok {
			evicted += c.insert(k)
			staged++
		}
	}
	c.stats.Prefetched += int64(staged)
	c.stats.Evicted += int64(evicted)
	return false
}

// residency returns the oracle's resident chunks in LRU-chain order,
// most recently used first.
func (c *lruOracle) residency() []int {
	out := make([]int, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(int))
	}
	return out
}

// poolResidency walks the pool's intrusive LRU chain, most recently
// used first.  It also holds the dense index to the chain: each chained
// entry's key looks up to that entry in a slot still mapped to its
// segment, no other index cell is set, and the resident count is the
// chain's length.
func poolResidency(t *testing.T, p *bufferPool) []poolKey {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]poolKey, 0, p.resident)
	for i := p.head; i != poolNil; i = p.entries[i].next {
		k := p.entries[i].key
		if got := p.lookupLocked(k); got != i {
			t.Fatalf("index of %+v = entry %d, chain has it at %d", k, got, i)
		}
		if slot, ok := p.slots[p.segs[k.seg].id]; !ok || slot != k.seg {
			t.Fatalf("entry %+v is resident in a released slot", k)
		}
		out = append(out, k)
	}
	cells := 0
	for _, ps := range p.segs {
		for _, c := range ps.at {
			if c != 0 {
				cells++
			}
		}
	}
	if cells != len(out) || p.resident != len(out) {
		t.Fatalf("index holds %d chunks, resident count %d, LRU chain %d", cells, p.resident, len(out))
	}
	return out
}

// diffRig opens one pooled stream over a fresh store plus a matching
// oracle.
func diffRig(t *testing.T, p CachePolicy, frames int) (*Stream, *lruOracle, int) {
	t.Helper()
	s := cachedStream(t, p, frames)
	return s, newLRUOracle(p), frames - 1
}

// runDemandDiff replays idxs on the demand path (round -1) against both
// implementations, failing on the first divergent read.
func runDemandDiff(t *testing.T, s *Stream, oracle *lruOracle, limit int, idxs []int) {
	t.Helper()
	for n, idx := range idxs {
		dt, err := s.ReadChunkTimeAt(idx, 1200, -1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		hit := dt == 0
		if want := oracle.read(idx, limit); hit != want {
			t.Fatalf("read %d (chunk %d): pool hit=%v, oracle hit=%v", n, idx, hit, want)
		}
	}
	if got, want := s.CacheStats(), oracle.stats; got != want {
		t.Fatalf("stats diverged: pool %+v, oracle %+v", got, want)
	}
	if slot := s.pool.slots[s.seg.id]; slot != s.pslot {
		t.Fatalf("stream holds slot %d, pool maps %v to %d", s.pslot, s.seg.id, slot)
	}
	got := poolResidency(t, s.pool)
	want := oracle.residency()
	if len(got) != len(want) {
		t.Fatalf("residency size: pool %d, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].chunk != want[i] || got[i].seg != s.pslot {
			t.Fatalf("residency[%d]: pool %+v, oracle chunk %d", i, got[i], want[i])
		}
	}
}

func TestPoolMatchesLRUOracleSequential(t *testing.T) {
	s, oracle, limit := diffRig(t, CachePolicy{Capacity: 8, Lookahead: 4}, 64)
	idxs := make([]int, 64)
	for i := range idxs {
		idxs[i] = i
	}
	runDemandDiff(t, s, oracle, limit, idxs)
}

func TestPoolMatchesLRUOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		policy := CachePolicy{Capacity: 2 + int(seed%7), Lookahead: int(seed % 5)}
		s, oracle, limit := diffRig(t, policy, 48)
		rng := rand.New(rand.NewSource(seed))
		idxs := make([]int, 300)
		for i := range idxs {
			idxs[i] = rng.Intn(48)
		}
		runDemandDiff(t, s, oracle, limit, idxs)
		s.Close()
	}
}

// TestPoolStagedSequentialMatchesOracle replays a sequential playback on
// the staged path, one read per round: every earlier round's ops commit
// before the next read probes residency, so the hit pattern and
// residency must equal the immediate-mode oracle's.
func TestPoolStagedSequentialMatchesOracle(t *testing.T) {
	policy := CachePolicy{Capacity: 8, Lookahead: 4}
	s, oracle, limit := diffRig(t, policy, 64)
	for i := 0; i < 64; i++ {
		dt, err := s.ReadChunkTimeAt(i, 1200, int64(i), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		hit := dt == 0
		if want := oracle.read(i, limit); hit != want {
			t.Fatalf("chunk %d: pool hit=%v, oracle hit=%v", i, hit, want)
		}
	}
	// The last round's staged ops are still pending; commit them so the
	// final residency snapshot is complete.
	s.pool.mu.Lock()
	s.pool.commitLocked(64)
	s.pool.mu.Unlock()
	cs := s.CacheStats()
	if cs.Hits != oracle.stats.Hits || cs.Misses != oracle.stats.Misses || cs.Prefetched != oracle.stats.Prefetched {
		t.Fatalf("stats diverged: pool %+v, oracle %+v", cs, oracle.stats)
	}
	// Staged-mode evictions are accounted on the store aggregate.
	if got, want := s.pool.stats().Evicted, oracle.stats.Evicted; got != want {
		t.Fatalf("evictions: pool %d, oracle %d", got, want)
	}
	got := poolResidency(t, s.pool)
	want := oracle.residency()
	if len(got) != len(want) {
		t.Fatalf("residency size: pool %d, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].chunk != want[i] {
			t.Fatalf("residency[%d]: pool chunk %d, oracle chunk %d", i, got[i].chunk, want[i])
		}
	}
}

func FuzzPoolVsLRU(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(2), []byte{9, 9, 0, 17, 3, 3, 8})
	f.Add(int64(3), []byte{30, 0, 30, 1, 29, 2})
	f.Fuzz(func(t *testing.T, seed int64, pattern []byte) {
		if len(pattern) == 0 || len(pattern) > 400 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		policy := CachePolicy{Capacity: 1 + rng.Intn(12), Lookahead: rng.Intn(6)}
		const frames = 32
		s, oracle, limit := diffRig(t, policy, frames)
		defer s.Close()
		idxs := make([]int, len(pattern))
		for i, b := range pattern {
			idxs[i] = int(b) % frames
		}
		runDemandDiff(t, s, oracle, limit, idxs)
	})
}

// TestPoolSharedAcrossStreams is the point of the whole exercise: a
// second session of the same clip rides the first one's staged chunks.
func TestPoolSharedAcrossStreams(t *testing.T) {
	_, st := testRig(t)
	st.SetCachePolicy(CachePolicy{Capacity: 8, Lookahead: 4})
	seg, err := st.Place(clip(t, 30), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 5; i++ {
		if _, err := a.ReadChunkTimeAt(i, 1200, -1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// a's first miss staged 0..4; b reads them at zero device cost.
	for i := 0; i < 5; i++ {
		dt, err := b.ReadChunkTimeAt(i, 1200, -1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if dt != 0 {
			t.Fatalf("chunk %d: cross-stream read cost %v, want pool hit", i, dt)
		}
	}
	bs := b.CacheStats()
	if bs.Hits != 5 || bs.Shared != 5 {
		t.Fatalf("b stats = %+v, want 5 hits all shared", bs)
	}
	a.Close()
	// The aggregate survives a's close.
	ps := st.PoolStats()
	if ps.Hits != bs.Hits+a.CacheStats().Hits || ps.Misses == 0 {
		t.Fatalf("aggregate lost history after close: %+v", ps)
	}
	if ps.Streams != 1 {
		t.Fatalf("streams = %d after close, want 1", ps.Streams)
	}
}

// TestPoolCapacityScalesWithStreams holds the pool to its contract:
// Capacity chunks per attached stream, shrinking on detach.
func TestPoolCapacityScalesWithStreams(t *testing.T) {
	_, st := testRig(t)
	st.SetCachePolicy(CachePolicy{Capacity: 3, Lookahead: 0})
	seg, err := st.Place(clip(t, 30), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.PoolStats().Capacity; got != 3 {
		t.Fatalf("capacity with 1 stream = %d, want 3", got)
	}
	b, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := st.PoolStats().Capacity; got != 6 {
		t.Fatalf("capacity with 2 streams = %d, want 6", got)
	}
	for i := 0; i < 6; i++ {
		if _, err := a.ReadChunkTimeAt(i, 1200, -1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.PoolStats().Resident; got != 6 {
		t.Fatalf("resident = %d, want 6", got)
	}
	a.Close()
	ps := st.PoolStats()
	if ps.Capacity != 3 || ps.Resident != 3 {
		t.Fatalf("after detach: capacity %d resident %d, want 3/3", ps.Capacity, ps.Resident)
	}
	// The survivors are the three most recently used chunks.
	res := poolResidency(t, b.pool)
	for i, k := range res {
		if want := 5 - i; k.chunk != want {
			t.Fatalf("residency[%d] = chunk %d, want %d", i, k.chunk, want)
		}
	}
}

// TestPoolResidencyPerSegment: two segments read over the same chunk
// indices keep apart in one pool.  An eviction clears only its own
// segment's index cell, and Resident counts the live entries.
func TestPoolResidencyPerSegment(t *testing.T) {
	_, st := testRig(t)
	st.SetCachePolicy(CachePolicy{Capacity: 2, Lookahead: 0})
	var ss [2]*Stream
	for i := range ss {
		seg, err := st.Place(clip(t, 8), "disk0")
		if err != nil {
			t.Fatal(err)
		}
		if ss[i], _, err = st.OpenStream(seg.ID(), media.MBPerSecond); err != nil {
			t.Fatal(err)
		}
		defer ss[i].Close()
	}
	a, b := ss[0], ss[1]
	if a.pslot == b.pslot {
		t.Fatalf("both segments hold pool slot %d", a.pslot)
	}
	read := func(s *Stream, chunk int, wantHit bool) {
		t.Helper()
		dt, err := s.ReadChunkTimeAt(chunk, 1200, -1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if hit := dt == 0; hit != wantHit {
			t.Fatalf("slot %d chunk %d: hit=%v, want %v", s.pslot, chunk, hit, wantHit)
		}
	}
	chain := func(want ...poolKey) {
		t.Helper()
		got := poolResidency(t, a.pool)
		if len(got) != len(want) {
			t.Fatalf("residency %+v, want %+v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("residency %+v, want %+v", got, want)
			}
		}
		if ps := st.PoolStats(); ps.Resident != len(want) {
			t.Fatalf("PoolStats.Resident = %d, %d entries live", ps.Resident, len(want))
		}
	}
	ka := func(c int) poolKey { return poolKey{seg: a.pslot, chunk: c} }
	kb := func(c int) poolKey { return poolKey{seg: b.pslot, chunk: c} }

	// Capacity 2 per stream: each fifth chunk evicts the coldest.  The
	// first eviction is b's 0; a's 0 stays resident.
	read(b, 0, false)
	read(a, 0, false)
	read(b, 1, false)
	read(a, 1, false)
	chain(ka(1), kb(1), ka(0), kb(0))
	read(a, 2, false)
	chain(ka(2), ka(1), kb(1), ka(0))
	read(a, 0, true)
	read(b, 0, false) // evicts b's 1
	chain(kb(0), ka(0), ka(2), ka(1))
	read(a, 3, false) // evicts a's 1
	chain(ka(3), kb(0), ka(0), ka(2))
	read(b, 1, false) // evicts a's 2
	read(a, 1, false) // evicts a's 0
	chain(ka(1), kb(1), ka(3), kb(0))
	if ps := st.PoolStats(); ps.Evicted != 5 {
		t.Fatalf("evicted %d chunks, want 5", ps.Evicted)
	}
}

// TestPoolRetiredKeepsOwnResidency: a policy change retires the pool
// while a stream still reads through it, and a later stream of the same
// segment gets a fresh pool.  Each pool keeps its own residency for the
// segment, so neither sees the other's chunks.
func TestPoolRetiredKeepsOwnResidency(t *testing.T) {
	_, st := testRig(t)
	st.SetCachePolicy(CachePolicy{Capacity: 4, Lookahead: 2})
	seg, err := st.Place(clip(t, 8), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if dt, err := a.ReadChunkTimeAt(0, 1200, -1, 0, 0); err != nil || dt == 0 {
		t.Fatalf("first read: %v, %v; want a miss", dt, err)
	}
	st.SetCachePolicy(CachePolicy{Capacity: 4, Lookahead: 1})
	b, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.pool == b.pool {
		t.Fatal("the policy change kept the old pool")
	}
	// The retired pool holds 0..2; none of it is in the new one.
	for _, c := range []int{1, 0} {
		if dt, err := b.ReadChunkTimeAt(c, 1200, -1, 0, 0); err != nil || dt == 0 {
			t.Fatalf("new pool, chunk %d: %v, %v; want a miss", c, dt, err)
		}
	}
	if dt, err := a.ReadChunkTimeAt(2, 1200, -1, 0, 0); err != nil || dt != 0 {
		t.Fatalf("retired pool, chunk 2: %v, %v; want a hit", dt, err)
	}
	if n := len(poolResidency(t, a.pool)); n != 3 {
		t.Fatalf("retired pool holds %d chunks, want 3", n)
	}
	if n := len(poolResidency(t, b.pool)); n != 3 {
		t.Fatalf("new pool holds %d chunks, want 3", n)
	}
}

// TestPoolReleasesIdleSlots: a pool that serves one segment after
// another, each streamed to its end and closed, recycles the slots of
// segments it no longer serves instead of keeping an index for every
// segment it ever served.  A closed stream's last staged inserts still
// land, so at most the open segment and its predecessor hold slots.
func TestPoolReleasesIdleSlots(t *testing.T) {
	for _, staged := range []bool{false, true} {
		_, st := testRig(t)
		st.SetCachePolicy(CachePolicy{Capacity: 4, Lookahead: 2})
		round := int64(0)
		for n := 0; n < 10; n++ {
			seg, err := st.Place(clip(t, 8), "disk0")
			if err != nil {
				t.Fatal(err)
			}
			s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				r := int64(-1)
				if staged {
					r, round = round, round+1
				}
				if _, err := s.ReadChunkTimeAt(i, 1200, r, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			p := s.pool
			p.mu.Lock()
			slots, segs := len(p.slots), len(p.segs)
			p.mu.Unlock()
			if slots > 2 || segs > 2 {
				t.Fatalf("staged=%v, segment %d: %d mapped slots, %d slots in all; want at most 2", staged, n, slots, segs)
			}
			poolResidency(t, p)
			s.Close()
		}
	}
}

// TestPoolStagedInsertOutlivesItsStream: a stream closed with inserts
// still staged leaves its segment's slot in place until they land, so
// they land on that segment and not on one opened after it.
func TestPoolStagedInsertOutlivesItsStream(t *testing.T) {
	_, st := testRig(t)
	st.SetCachePolicy(CachePolicy{Capacity: 4, Lookahead: 2})
	var segs [2]*Segment
	for i := range segs {
		var err error
		if segs[i], err = st.Place(clip(t, 8), "disk0"); err != nil {
			t.Fatal(err)
		}
	}
	a, _, err := st.OpenStream(segs[0].ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadChunkTimeAt(0, 1200, 0, 0, 0); err != nil { // stages a's 0..2
		t.Fatal(err)
	}
	a.Close()
	b, _, err := st.OpenStream(segs[1].ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.pslot == a.pslot {
		t.Fatalf("b took slot %d while a's inserts were still staged", a.pslot)
	}
	if _, err := b.ReadChunkTimeAt(5, 1200, 1, 0, 0); err != nil { // commits a's inserts
		t.Fatal(err)
	}
	if dt, err := b.ReadChunkTimeAt(0, 1200, 2, 0, 0); err != nil || dt == 0 {
		t.Fatalf("b's chunk 0: %v, %v; want a miss", dt, err)
	}
	for _, k := range poolResidency(t, b.pool) {
		if k.seg == a.pslot && b.pool.segs[k.seg].id != segs[0].ID() {
			t.Fatalf("a's staged chunk %d landed on %v", k.chunk, b.pool.segs[k.seg].id)
		}
	}
}

// TestPoolHitAllocs pins the staged-path warm hit to zero allocations:
// commit watermark check, one map probe, one staged touch in a retained
// buffer.
func TestPoolHitAllocs(t *testing.T) {
	_, st := testRig(t)
	st.SetCachePolicy(CachePolicy{Capacity: 8, Lookahead: 0})
	seg, err := st.Place(clip(t, 8), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	round := int64(0)
	for i := 0; i < 8; i++ {
		if _, err := s.ReadChunkTimeAt(i, 1200, round, 0, 0); err != nil {
			t.Fatal(err)
		}
		round++
	}
	// Warm the retained buffers through a few commit cycles.
	for i := 0; i < 16; i++ {
		if _, err := s.ReadChunkTimeAt(i%8, 1200, round, 0, 0); err != nil {
			t.Fatal(err)
		}
		round++
	}
	idx := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.ReadChunkTimeAt(idx%8, 1200, round, 0, 0); err != nil {
			t.Fatal(err)
		}
		idx++
		round++
	})
	if allocs != 0 {
		t.Errorf("staged pool-hit read path allocates %.1f times per read, want 0", allocs)
	}
	if cs := s.CacheStats(); cs.Hits == 0 || cs.Misses != 8 {
		t.Fatalf("fixture mis-staged: %+v", cs)
	}
}

func BenchmarkPoolHit(b *testing.B) {
	dm := device.NewManager()
	if err := dm.Register(device.NewDisk("disk0", 1_000_000, 10*media.MBPerSecond, 10*avtime.Millisecond)); err != nil {
		b.Fatal(err)
	}
	st := NewStore(dm)
	st.SetCachePolicy(CachePolicy{Capacity: 8, Lookahead: 0})
	v := media.NewVideoValue(media.TypeRawVideo30, 40, 30, 8)
	for i := 0; i < 8; i++ {
		if err := v.AppendFrame(media.NewFrame(40, 30, 8)); err != nil {
			b.Fatal(err)
		}
	}
	seg, err := st.Place(v, "disk0")
	if err != nil {
		b.Fatal(err)
	}
	s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	round := int64(0)
	for i := 0; i < 24; i++ {
		if _, err := s.ReadChunkTimeAt(i%8, 1200, round, 0, 0); err != nil {
			b.Fatal(err)
		}
		round++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadChunkTimeAt(i%8, 1200, round, 0, 0); err != nil {
			b.Fatal(err)
		}
		round++
	}
}
