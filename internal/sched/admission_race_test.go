package sched

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"avdb/internal/media"
	"avdb/internal/obs"
)

// TestAdmissionConcurrentNeverOvercommits hammers Reserve/Shrink/Release
// from many goroutines and checks the two safety invariants at every
// observable point: the controller never grants past its budget, and
// accounting always balances (Free + Used == Total componentwise).
// Run with -race; the test is also a determinism-independent stress of
// the sink path, so half the workers publish through a collector.
func TestAdmissionConcurrentNeverOvercommits(t *testing.T) {
	total := Resources{Buffers: 64, CPU: 64 * media.MBPerSecond, Bus: 64 * media.MBPerSecond}
	a, err := NewAdmission(total)
	if err != nil {
		t.Fatal(err)
	}
	a.SetSink(obs.NewCollector())

	check := func() {
		used := a.Used()
		free := a.total.Sub(used)
		// used and free are read in two steps, so each must individually
		// respect the budget even if the other moved in between.
		if !used.Fits(total) {
			t.Errorf("over-commit: used %v exceeds total %v", used, total)
		}
		if !free.Fits(total) || !free.nonNegative() {
			t.Errorf("free %v escapes budget %v", free, total)
		}
	}

	const workers = 8
	const rounds = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				req := Resources{
					Buffers: 1 + r.Intn(16),
					CPU:     media.DataRate(1+r.Intn(16)) * media.MBPerSecond,
					Bus:     media.DataRate(1+r.Intn(16)) * media.MBPerSecond,
				}
				g, err := a.Reserve(req)
				if err != nil {
					if !errors.Is(err, ErrAdmission) {
						t.Errorf("unexpected reserve error: %v", err)
					}
					check()
					continue
				}
				check()
				if r.Intn(2) == 0 {
					half := Resources{Buffers: req.Buffers / 2, CPU: req.CPU / 2, Bus: req.Bus / 2}
					if err := g.Shrink(half); err != nil {
						t.Errorf("shrink to %v of %v failed: %v", half, req, err)
					}
					check()
				}
				g.Release()
				g.Release() // second release must be a no-op
				check()
			}
		}(int64(w) + 1)
	}
	wg.Wait()

	// All grants released: the pool must drain back to empty exactly.
	if used := a.Used(); !used.IsZero() {
		t.Errorf("resources leaked: used %v after all releases", used)
	}
	if free := a.total.Sub(a.Used()); free != total {
		t.Errorf("free %v != total %v after all releases", free, total)
	}
}

// TestAdmissionAccountingBalancesUnderRacingReleases interleaves a
// snapshotting reader with racing grant releases; with releases being
// the only mutation in flight, Used must equal the sum of what is still
// outstanding once the dust settles, i.e. zero.
func TestAdmissionAccountingBalancesUnderRacingReleases(t *testing.T) {
	total := Resources{Buffers: 1024, CPU: media.GBPerSecond, Bus: media.GBPerSecond}
	a, err := NewAdmission(total)
	if err != nil {
		t.Fatal(err)
	}
	var grants []*Grant
	for i := 0; i < 256; i++ {
		g, err := a.Reserve(Resources{Buffers: 4, CPU: 2 * media.MBPerSecond, Bus: media.MBPerSecond})
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, g)
	}
	var wg sync.WaitGroup
	for _, g := range grants {
		wg.Add(1)
		go func(g *Grant) {
			defer wg.Done()
			g.Release()
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if used := a.Used(); !used.nonNegative() {
				t.Errorf("used went negative: %v", used)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if used := a.Used(); !used.IsZero() {
		t.Errorf("used %v after releasing every grant", used)
	}
}
