package sched

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(avtime.Second)
	if c.Now() != avtime.Second {
		t.Error("start time wrong")
	}
	c.AdvanceTo(3 * avtime.Second)
	if c.Now() != 3*avtime.Second {
		t.Error("AdvanceTo wrong")
	}
	c.AdvanceTo(avtime.Second) // earlier: ignored
	if c.Now() != 3*avtime.Second {
		t.Error("AdvanceTo moved backward")
	}
	var zero VirtualClock
	if zero.Now() != 0 {
		t.Error("zero clock not at zero")
	}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{Buffers: 2, CPU: 10, Bus: 20}
	b := Resources{Buffers: 1, CPU: 5, Bus: 5}
	if got := a.Add(b); got != (Resources{3, 15, 25}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Resources{1, 5, 15}) {
		t.Errorf("Sub = %v", got)
	}
	if !b.Fits(a) || a.Fits(b) {
		t.Error("Fits misordered")
	}
	if !(Resources{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

func TestAdmissionReserveRelease(t *testing.T) {
	adm := mustAdmission(t, Resources{Buffers: 10, CPU: 100 * media.MBPerSecond, Bus: 200 * media.MBPerSecond})
	g1, err := adm.Reserve(Resources{Buffers: 6, CPU: 60 * media.MBPerSecond, Bus: 50 * media.MBPerSecond})
	if err != nil {
		t.Fatal(err)
	}
	// A second reservation exceeding any single component fails.
	if _, err := adm.Reserve(Resources{Buffers: 5}); !errors.Is(err, ErrAdmission) {
		t.Errorf("buffer over-reservation error = %v", err)
	}
	if _, err := adm.Reserve(Resources{CPU: 50 * media.MBPerSecond}); !errors.Is(err, ErrAdmission) {
		t.Errorf("CPU over-reservation error = %v", err)
	}
	if free := adm.total.Sub(adm.Used()); free.Buffers != 4 {
		t.Errorf("Free = %v", free)
	}
	if used := adm.Used(); used.Buffers != 6 {
		t.Errorf("Used = %v", used)
	}
	g1.Release()
	g1.Release() // idempotent
	if !adm.Used().IsZero() {
		t.Error("release did not return resources")
	}
	if _, err := adm.Reserve(Resources{Buffers: -1}); err == nil {
		t.Error("negative reservation accepted")
	}
	if g1.Resources().Buffers != 6 {
		t.Error("grant resources wrong")
	}
	if adm.Total().Buffers != 10 {
		t.Error("Total wrong")
	}
}

func TestAdmissionConcurrent(t *testing.T) {
	adm := mustAdmission(t, Resources{Buffers: 100})
	var wg sync.WaitGroup
	grants := make(chan *Grant, 300)
	for i := 0; i < 300; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g, err := adm.Reserve(Resources{Buffers: 1}); err == nil {
				grants <- g
			}
		}()
	}
	wg.Wait()
	close(grants)
	var n int
	for g := range grants {
		n++
		g.Release()
	}
	if n != 100 {
		t.Errorf("granted %d of budget 100", n)
	}
	if !adm.Used().IsZero() {
		t.Error("leaked grants")
	}
}

func TestAdmissionInvariantProperty(t *testing.T) {
	adm := mustAdmission(t, Resources{Buffers: 50, CPU: 1000, Bus: 1000})
	f := func(reqs []uint8) bool {
		var grants []*Grant
		for _, r := range reqs {
			g, err := adm.Reserve(Resources{Buffers: int(r % 20), CPU: media.DataRate(r), Bus: media.DataRate(r) * 2})
			if err == nil {
				grants = append(grants, g)
			}
			u := adm.Used()
			if !u.Fits(adm.Total()) || !u.nonNegative() {
				return false
			}
		}
		for _, g := range grants {
			g.Release()
		}
		return adm.Used().IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLatencySample(t *testing.T) {
	l := NewLatency(10*avtime.Millisecond, 0, 1)
	for i := 0; i < 10; i++ {
		if got := l.Sample(); got != 10*avtime.Millisecond {
			t.Fatalf("jitterless sample = %v", got)
		}
	}
	j := NewLatency(5*avtime.Millisecond, 3*avtime.Millisecond, 7)
	for i := 0; i < 1000; i++ {
		s := j.Sample()
		if s < 5*avtime.Millisecond || s > 8*avtime.Millisecond {
			t.Fatalf("sample %v outside [5ms, 8ms]", s)
		}
	}
	// Determinism: same seed, same sequence.
	a, b := NewLatency(0, avtime.Second, 42), NewLatency(0, avtime.Second, 42)
	for i := 0; i < 100; i++ {
		if a.Sample() != b.Sample() {
			t.Fatal("latency not deterministic")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative latency did not panic")
			}
		}()
		NewLatency(-1, 0, 0)
	}()
}

func TestMonitor(t *testing.T) {
	m := NewMonitor(10 * avtime.Millisecond)
	m.Record(0, 5*avtime.Millisecond)                                // on time
	m.Record(avtime.Second, avtime.Second)                           // exact
	m.Record(2*avtime.Second, 2*avtime.Second+20*avtime.Millisecond) // miss
	m.Record(3*avtime.Second, 2*avtime.Second)                       // early counts as on-time
	if m.count != 4 || m.Misses() != 1 {
		t.Errorf("count=%d misses=%d", m.count, m.Misses())
	}
	if m.MissRate() != 0.25 {
		t.Errorf("MissRate = %v", m.MissRate())
	}
	if m.MaxLateness() != 20*avtime.Millisecond {
		t.Errorf("MaxLateness = %v", m.MaxLateness())
	}
	if m.String() == "" {
		t.Error("empty String")
	}
	empty := NewMonitor(0)
	if empty.MissRate() != 0 || empty.MaxLateness() != 0 {
		t.Error("empty monitor stats wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative tolerance did not panic")
			}
		}()
		NewMonitor(-1)
	}()
}

func TestResyncConvergesCorrections(t *testing.T) {
	r := NewResync(0.5)
	// Video is consistently slow (20ms), audio fast (5ms).
	for i := 0; i < 50; i++ {
		r.Observe("video", 20*avtime.Millisecond)
		r.Observe("audio", 5*avtime.Millisecond)
	}
	if got := r.Correction("video"); got != 0 {
		t.Errorf("slowest track correction = %v, want 0", got)
	}
	c := r.Correction("audio")
	if c < 14*avtime.Millisecond || c > 16*avtime.Millisecond {
		t.Errorf("audio correction = %v, want ~15ms", c)
	}
	if r.Correction("unknown") != 0 {
		t.Error("unknown track corrected")
	}
	if len(r.est) != 2 {
		t.Errorf("tracks = %d", len(r.est))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad alpha did not panic")
			}
		}()
		NewResync(0)
	}()
}

func TestResyncReducesSkew(t *testing.T) {
	// Simulated playback: per-tick latencies with different means; the
	// correction should cut the steady-state skew.
	r := NewResync(0.3)
	video := NewLatency(18*avtime.Millisecond, 4*avtime.Millisecond, 11)
	audio := NewLatency(3*avtime.Millisecond, 2*avtime.Millisecond, 13)
	var rawWorst, corrWorst avtime.WorldTime
	for tick := 0; tick < 200; tick++ {
		lv, la := video.Sample(), audio.Sample()
		raw := Skew(map[string]avtime.WorldTime{"v": lv, "a": la})
		if raw > rawWorst {
			rawWorst = raw
		}
		// Warm the controller before judging corrected skew.
		if tick > 20 {
			corr := Skew(map[string]avtime.WorldTime{
				"v": lv + r.Correction("video"),
				"a": la + r.Correction("audio"),
			})
			if corr > corrWorst {
				corrWorst = corr
			}
		}
		r.Observe("video", lv)
		r.Observe("audio", la)
	}
	if corrWorst >= rawWorst/2 {
		t.Errorf("correction did not help: raw worst %v, corrected worst %v", rawWorst, corrWorst)
	}
}

func TestSkew(t *testing.T) {
	if Skew(nil) != 0 {
		t.Error("nil skew not zero")
	}
	if Skew(map[string]avtime.WorldTime{"a": 5}) != 0 {
		t.Error("single-track skew not zero")
	}
	got := Skew(map[string]avtime.WorldTime{"a": 5, "b": 12, "c": 8})
	if got != 7 {
		t.Errorf("Skew = %v, want 7", got)
	}
}

// mustAdmission builds an admission controller or fails the test.
func mustAdmission(t *testing.T, r Resources) *Admission {
	t.Helper()
	a, err := NewAdmission(r)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAdmissionRejectsNegativeBudget(t *testing.T) {
	if _, err := NewAdmission(Resources{Buffers: -1}); err == nil {
		t.Error("negative budget accepted")
	}
}
