package storage

// sched_concurrent_test.go reads the streams of one store into one open
// round from several goroutines at once, the way clients on their own
// goroutines would meet the engine, and closes the round once every
// read is in.  Every read takes the store's one lock, the SCAN-EDF key
// is total and pool hits read only committed residency, so the
// interleaving must be invisible: the service trace, IOStats, PoolStats
// and every stream's CacheStats after the run have to match a serial
// run of the same rounds byte for byte.  Run under -race this is also
// the data-race proof for reads through one store from several
// goroutines.

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// concurrentRun is everything a run of TestConcurrentSubmitDeterminism
// can observe.
type concurrentRun struct {
	trace []svcEvent
	io    IOStats
	pool  PoolStats
	cache []CacheStats
}

// TestConcurrentSubmitDeterminism reads distinct Rounds streams of one
// store with ReadChunkTimeAt, each round's reads dealt to several
// goroutines — a different random deal every round and trial — then
// closes the round with CloseRound, and compares the run against a
// single-goroutine baseline.  Half the streams read through the buffer
// pool, half go to the scheduler on every read; each stream jumps once
// (its chunk index wraps), so a stale serviced result is met too.
func TestConcurrentSubmitDeterminism(t *testing.T) {
	const streams, frames, rounds = 12, 24, 24
	unit := media.TypeRawVideo30.Rate.UnitDuration()
	run := func(goroutines int, rng *rand.Rand) concurrentRun {
		_, st := stripeRig(t, 4)
		st.SetStriping(StripePolicy{Seeks: true, Rounds: true})
		var trace []svcEvent
		st.io.svcTrace = &trace
		ss := make([]*Stream, streams)
		for j := range ss {
			if j == streams/2 {
				// The pool holds every chunk, so no commit evicts and the
				// staging order, which the racing reads decide, never shows.
				st.SetCachePolicy(CachePolicy{Capacity: frames, Lookahead: 2})
			}
			seg, err := st.PlaceStriped(clip(t, frames), media.MBPerSecond, 1+j%4)
			if err != nil {
				t.Fatal(err)
			}
			if ss[j], _, err = st.OpenStream(seg.ID(), media.MBPerSecond); err != nil {
				t.Fatal(err)
			}
		}
		read := func(j int, round int64) {
			now := avtime.WorldTime(round) * unit
			deadline := now + avtime.WorldTime(j%3)*avtime.Millisecond
			if _, err := ss[j].ReadChunkTimeAt((int(round)+3*j)%frames, 1200, round, now, deadline); err != nil {
				t.Error(err)
			}
		}
		for r := int64(0); r < rounds; r++ {
			if goroutines <= 1 {
				for j := range ss {
					read(j, r)
				}
			} else {
				order := rng.Perm(streams)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := g; i < streams; i += goroutines {
							read(order[i], r)
						}
					}()
				}
				wg.Wait()
			}
			st.CloseRound(r)
		}
		out := concurrentRun{io: st.IOStats(), pool: st.PoolStats()}
		for _, s := range ss {
			out.cache = append(out.cache, s.CacheStats())
			s.Close()
		}
		st.mu.Lock()
		out.trace = trace
		st.mu.Unlock()
		return out
	}

	want := run(1, nil)
	if want.io.Scheduled == 0 || want.pool.Hits == 0 || want.pool.Staged != 0 {
		t.Fatalf("the serial run misses a path: %+v, %+v", want.io, want.pool)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4; trial++ {
		for _, goroutines := range []int{2, 4, 8} {
			got := run(goroutines, rng)
			if got.io != want.io {
				t.Fatalf("trial %d, %d goroutines: IOStats depend on the read interleaving:\ngot  %+v\nwant %+v",
					trial, goroutines, got.io, want.io)
			}
			if got.pool != want.pool {
				t.Fatalf("trial %d, %d goroutines: PoolStats depend on the read interleaving:\ngot  %+v\nwant %+v",
					trial, goroutines, got.pool, want.pool)
			}
			if !slices.Equal(got.cache, want.cache) {
				t.Fatalf("trial %d, %d goroutines: CacheStats depend on the read interleaving:\ngot  %+v\nwant %+v",
					trial, goroutines, got.cache, want.cache)
			}
			if len(got.trace) != len(want.trace) {
				t.Fatalf("trial %d, %d goroutines: trace length diverged: %d vs %d",
					trial, goroutines, len(got.trace), len(want.trace))
			}
			for i := range got.trace {
				if got.trace[i] != want.trace[i] {
					t.Fatalf("trial %d, %d goroutines: service order diverged at event %d:\ngot  %+v\nwant %+v",
						trial, goroutines, i, got.trace[i], want.trace[i])
				}
			}
		}
	}
}
