package storage

// cache.go declares the chunk-caching policy and stats behind
// Stream.ReadChunkTime.  The model: a stream has bandwidth reserved on
// its device whether or not the consumer is reading this instant, so
// the device can work ahead, staging the next few chunks overlapped
// with the playback interval the consumer spends presenting the current
// one.  A staged (resident) chunk then costs the consumer zero device
// time; only demand misses — the first read, seeks, jumps past the
// lookahead window — pay the full read cost.
//
// Residency is store-wide, not per stream: CachePolicy configures the
// shared buffer pool in pool.go, keyed by (segment, chunk), so
// co-admitted sessions of the same clip hit chunks their neighbors
// staged.  Determinism under parallel lanes comes from the pool's
// snapshot/commit discipline — ticks read committed residency and stage
// their mutations, applied in (stream, program-order) sequence at the
// round barrier — not from isolation.  A single stream over the pool
// behaves exactly like the retired per-stream LRU (the differential
// suite holds it to that oracle), and the zero CachePolicy still
// disables caching entirely, so uncached read costs and goldens are
// untouched.

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
