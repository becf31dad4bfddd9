package storage

// pool_differential_test.go holds the shared buffer pool to the retired
// per-stream LRU cache.  The oracle below is the pre-pool chunkCache
// (container/list LRU + lookahead fill) reproduced verbatim; the pool
// must be behavior-identical to it for single-session streams on the
// demand path (round < 0, where ops apply immediately) for ANY access
// pattern, and on the staged path (round >= 0) for sequential playback,
// the workload rounds model.  A separate shuffle test asserts the
// staged path's committed residency is independent of the order streams
// submit their reads within a round.

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
// used first.
func poolResidency(p *bufferPool) []poolKey {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]poolKey, 0, len(p.resident))
	for i := p.head; i != poolNil; i = p.entries[i].next {
		out = append(out, p.entries[i].key)
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
	got := poolResidency(s.pool)
	want := oracle.residency()
	if len(got) != len(want) {
		t.Fatalf("residency size: pool %d, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].chunk != want[i] || got[i].seg != s.seg.id {
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
	got := poolResidency(s.pool)
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

// TestPoolCommitOrderIndependence drives several streams of one clip
// through staged rounds, permuting the order streams submit within each
// round across runs: the committed residency chain, the pool aggregate,
// and every per-stream counter must not move.
func TestPoolCommitOrderIndependence(t *testing.T) {
	const (
		streams = 4
		rounds  = 40
		frames  = 48
	)
	run := func(perm int) ([]poolKey, PoolStats, []CacheStats) {
		_, st := testRig(t)
		st.SetCachePolicy(CachePolicy{Capacity: 4, Lookahead: 3})
		seg, err := st.Place(clip(t, frames), "disk0")
		if err != nil {
			t.Fatal(err)
		}
		ss := make([]*Stream, streams)
		for i := range ss {
			s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ss[i] = s
		}
		rng := rand.New(rand.NewSource(int64(perm) + 77))
		order := make([]int, streams)
		for i := range order {
			order[i] = i
		}
		for r := 0; r < rounds; r++ {
			rng.Shuffle(streams, func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, i := range order {
				// Stream i walks the clip with stride i+1: overlapping but
				// distinct access sequences, fixed per stream across runs.
				idx := (r * (i + 1)) % frames
				if _, err := ss[i].ReadChunkTimeAt(idx, 1200, int64(r), 0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		pool := ss[0].pool
		pool.mu.Lock()
		pool.commitLocked(rounds)
		pool.mu.Unlock()
		perStream := make([]CacheStats, streams)
		for i, s := range ss {
			perStream[i] = s.CacheStats()
		}
		return poolResidency(pool), pool.stats(), perStream
	}
	refRes, refStats, refStreams := run(0)
	for perm := 1; perm < 6; perm++ {
		res, stats, streamsCS := run(perm)
		if len(res) != len(refRes) {
			t.Fatalf("perm %d: residency size %d, want %d", perm, len(res), len(refRes))
		}
		for i := range res {
			if res[i] != refRes[i] {
				t.Fatalf("perm %d: residency[%d] = %+v, want %+v", perm, i, res[i], refRes[i])
			}
		}
		if stats != refStats {
			t.Fatalf("perm %d: pool stats %+v, want %+v", perm, stats, refStats)
		}
		for i := range streamsCS {
			if streamsCS[i] != refStreams[i] {
				t.Fatalf("perm %d stream %d: stats %+v, want %+v", perm, i, streamsCS[i], refStreams[i])
			}
		}
	}
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
	res := poolResidency(b.pool)
	for i, k := range res {
		if want := 5 - i; k.chunk != want {
			t.Fatalf("residency[%d] = chunk %d, want %d", i, k.chunk, want)
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
