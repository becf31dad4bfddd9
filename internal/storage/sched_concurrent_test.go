package storage

// sched_concurrent_test.go extends TestSubmitOrderIndependence to
// sessions submitting into the same round from different goroutines.
// Order independence (the SCAN-EDF key is total) plus io.mu on every
// shared-state touch means the interleaving must be invisible — the
// service trace, head walks and counters after the close have to match
// a sequential submission of the same round byte for byte.  Run under
// -race this is also the data-race proof for cross-session submits.

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentSubmitDeterminism submits one round's requests from
// several goroutines at once — a different random partition every
// trial — then closes the round and compares the full observable state against
// a single-goroutine baseline.
func TestConcurrentSubmitDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const streams = 24
	reqs := make([]byte, 0, 9*streams)
	for i := 0; i < streams; i++ {
		reqs = append(reqs, 0) // submit op
		operands := make([]byte, 8)
		rng.Read(operands)
		reqs = append(reqs, operands...)
	}
	decode := func(h *diffHarness, i int) ioReq {
		c := &byteCursor{data: reqs[9*i+1 : 9*(i+1)]}
		q := h.reqFrom(c)
		// One submission per stream per round, exactly what the engine's
		// commit barrier guarantees; distinct sids keep same-round
		// replacement (last-writer-wins by design) out of the picture.
		q.sid = int64(i)
		q.slot = nil
		return q
	}
	run := func(goroutines int) ([]svcEvent, IOStats) {
		h := newDiffHarness(t)
		if goroutines <= 1 {
			for i := 0; i < streams; i++ {
				h.neu.submit(h.cur, decode(h, i))
			}
		} else {
			// Deal the streams into per-goroutine hands, shuffled so the
			// racing submission orders differ across trials.
			order := rng.Perm(streams)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < streams; i += goroutines {
						h.neu.submit(h.cur, decode(h, order[i]))
					}
				}(g)
			}
			wg.Wait()
		}
		h.neu.closeRound(h.cur)
		return h.newTrace, h.neu.Stats()
	}

	wantTrace, wantStats := run(1)
	for trial := 0; trial < 8; trial++ {
		for _, goroutines := range []int{2, 4, 8} {
			trace, stats := run(goroutines)
			if stats != wantStats {
				t.Fatalf("trial %d, %d goroutines: stats depend on submission interleaving:\ngot  %+v\nwant %+v",
					trial, goroutines, stats, wantStats)
			}
			if len(trace) != len(wantTrace) {
				t.Fatalf("trial %d, %d goroutines: trace length diverged: %d vs %d",
					trial, goroutines, len(trace), len(wantTrace))
			}
			for i := range trace {
				if trace[i] != wantTrace[i] {
					t.Fatalf("trial %d, %d goroutines: service order diverged at event %d:\ngot  %+v\nwant %+v",
						trial, goroutines, i, trace[i], wantTrace[i])
				}
			}
		}
	}
}
