package storage

import (
	"strings"
	"sync"
	"testing"

	"avdb/internal/media"
	"avdb/internal/obs"
)

func cachedStream(t *testing.T, p CachePolicy, frames int) *Stream {
	t.Helper()
	_, st := testRig(t)
	st.SetCachePolicy(p)
	seg, err := st.Place(clip(t, frames), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestCachePolicyAccessors(t *testing.T) {
	_, st := testRig(t)
	if st.policy.Enabled() {
		t.Error("zero policy should be disabled")
	}
	p := CachePolicy{Capacity: 8, Lookahead: 2}
	st.SetCachePolicy(p)
	if got := st.policy; got != p {
		t.Errorf("CachePolicy = %+v, want %+v", got, p)
	}
}

func TestReadChunkTimeWithoutPolicyMatchesReadTime(t *testing.T) {
	_, st := testRig(t)
	seg, err := st.Place(clip(t, 20), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 5; i++ {
		ta, err := a.ReadChunkTimeAt(i, 1200, -1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.ReadTime(1200)
		if err != nil {
			t.Fatal(err)
		}
		if ta != tb {
			t.Fatalf("chunk %d: ReadChunkTime=%v, ReadTime=%v", i, ta, tb)
		}
	}
	if a.CacheStats() != (CacheStats{}) {
		t.Errorf("no-policy stream reported cache stats: %+v", a.CacheStats())
	}
}

func TestCacheLookaheadServesSequentialReads(t *testing.T) {
	s := cachedStream(t, CachePolicy{Capacity: 8, Lookahead: 4}, 30)
	// First read: demand miss — pays the device (startup + transfer) and
	// stages the next 4 chunks.
	t0, err := s.ReadChunkTimeAt(0, 1200, -1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t0 == 0 {
		t.Fatal("first read cannot be a hit")
	}
	// Chunks 1..4 were prefetched: zero device time.
	for i := 1; i <= 4; i++ {
		dt, err := s.ReadChunkTimeAt(i, 1200, -1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if dt != 0 {
			t.Errorf("chunk %d: prefetched read cost %v, want 0", i, dt)
		}
	}
	// Chunk 5 lies past the window: demand miss again.
	t5, err := s.ReadChunkTimeAt(5, 1200, -1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t5 == 0 {
		t.Error("chunk 5 should miss")
	}
	cs := s.CacheStats()
	if cs.Hits != 4 || cs.Misses != 2 {
		t.Errorf("stats = %+v, want 4 hits / 2 misses", cs)
	}
	if cs.Prefetched != 8 {
		t.Errorf("prefetched = %d, want 8 (4 per miss)", cs.Prefetched)
	}
	if s.bytes != 6*1200 {
		t.Errorf("BytesRead = %d, want %d (hits count toward the stream)", s.bytes, 6*1200)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity 3, lookahead 0: reads 0,1,2 fill the cache; reading 3
	// evicts 0 (least recently used); re-reading 0 misses again.
	s := cachedStream(t, CachePolicy{Capacity: 3, Lookahead: 0}, 30)
	for i := 0; i < 4; i++ {
		if _, err := s.ReadChunkTimeAt(i, 1200, -1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if dt, err := s.ReadChunkTimeAt(1, 1200, -1, 0, 0); err != nil || dt != 0 {
		t.Errorf("chunk 1 should still be resident: dt=%v err=%v", dt, err)
	}
	if dt, err := s.ReadChunkTimeAt(0, 1200, -1, 0, 0); err != nil || dt == 0 {
		t.Errorf("chunk 0 should have been evicted: dt=%v err=%v", dt, err)
	}
	cs := s.CacheStats()
	if cs.Evicted == 0 {
		t.Error("no evictions recorded")
	}
}

func TestCachePrefetchStopsAtSegmentEnd(t *testing.T) {
	s := cachedStream(t, CachePolicy{Capacity: 16, Lookahead: 10}, 5)
	if _, err := s.ReadChunkTimeAt(3, 1200, -1, 0, 0); err != nil {
		t.Fatal(err)
	}
	cs := s.CacheStats()
	if cs.Prefetched != 1 {
		t.Errorf("prefetched = %d, want 1 (only chunk 4 exists past 3)", cs.Prefetched)
	}
}

func TestCacheDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]int64, CacheStats) {
		s := cachedStream(t, CachePolicy{Capacity: 6, Lookahead: 3}, 40)
		var costs []int64
		for _, idx := range []int{0, 1, 2, 3, 4, 10, 11, 2, 12, 13, 14} {
			dt, err := s.ReadChunkTimeAt(idx, 1200, -1, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			costs = append(costs, int64(dt))
		}
		return costs, s.CacheStats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if s1 != s2 {
		t.Errorf("cache stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("read %d cost diverged: %d vs %d", i, c1[i], c2[i])
		}
	}
}

func TestCacheMetricsThroughSink(t *testing.T) {
	_, st := testRig(t)
	col := obs.NewCollector()
	st.SetSink(col)
	st.SetCachePolicy(CachePolicy{Capacity: 4, Lookahead: 2})
	seg, err := st.Place(clip(t, 20), "disk0")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if _, err := s.ReadChunkTimeAt(i, 1200, -1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	text := col.Snapshot().MetricsText()
	for _, metric := range []string{"storage.pool.hits", "storage.pool.misses", "storage.pool.prefetched"} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics missing %s:\n%s", metric, text)
		}
	}
}

func TestCacheConcurrentStreamsRace(t *testing.T) {
	// Several streams over segments on one device, read concurrently
	// from several goroutines.  Run under -race.
	_, st := testRig(t)
	st.SetSink(obs.NewCollector())
	st.SetCachePolicy(CachePolicy{Capacity: 8, Lookahead: 4})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		seg, err := st.Place(clip(t, 50), "disk0")
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := st.OpenStream(seg.ID(), media.MBPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		wg.Add(2)
		// Two goroutines per stream: the cache must also tolerate a
		// single stream shared across lanes.
		for g := 0; g < 2; g++ {
			go func(s *Stream, off int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := s.ReadChunkTimeAt((i+off)%50, 1200, -1, 0, 0); err != nil {
						t.Error(err)
						return
					}
				}
			}(s, g*25)
		}
	}
	wg.Wait()
}
