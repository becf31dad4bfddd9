package sched

import (
	"math"
	"slices"
	"sync"
	"testing"

	"avdb/internal/avtime"
)

// TestLatencyUniform checks a model's jitter over 10⁵ samples: none
// outside [0, J], the smallest and largest within 0.1% of its ends, the
// mean within 4.5 standard errors of J/2, and χ² over 100 bins below
// 148.2 (99 degrees of freedom, p = 0.001).  On [0, 1] both ends occur.
func TestLatencyUniform(t *testing.T) {
	const base, j, bins, n = 2 * avtime.Millisecond, 5 * avtime.Millisecond, 100, 100_000
	l := NewLatency(base, j, 7)
	bin := func(d avtime.WorldTime) int { return int(int64(d) * bins / int64(j+1)) }
	var width, seen [bins]float64
	for d := avtime.WorldTime(0); d <= j; d++ {
		width[bin(d)]++
	}
	lo, hi, sum := j, avtime.WorldTime(0), 0.0
	for range n {
		d := l.Sample() - base
		if d < 0 || d > j {
			t.Fatalf("jitter %v outside [0, %v]", d, j)
		}
		lo, hi = min(lo, d), max(hi, d)
		sum += float64(d)
		seen[bin(d)]++
	}
	if lo > j/1000 || hi < j-j/1000 {
		t.Errorf("jitter spans [%v, %v], want the ends of [0, %v]", lo, hi, j)
	}
	se := float64(j+1) / math.Sqrt(12*n)
	if mean := sum / n; math.Abs(mean-float64(j)/2) > 4.5*se {
		t.Errorf("mean %.1f, want %.1f ± %.1f", mean, float64(j)/2, 4.5*se)
	}
	chi2 := 0.0
	for i := range seen {
		want := n * width[i] / float64(j+1)
		chi2 += (seen[i] - want) * (seen[i] - want) / want
	}
	if chi2 > 148.2 {
		t.Errorf("χ² = %.1f over %d bins, want < 148.2", chi2, bins)
	}

	var ends [2]int
	coin := NewLatency(0, 1, 7)
	for range 1000 {
		ends[coin.Sample()]++
	}
	if ends[0] < 400 || ends[1] < 400 {
		t.Errorf("samples on [0, 1]: %v, want about 500 each", ends)
	}
}

// TestLatencyPinnedDraws pins a fixed seed's first draws, so any change
// to how a delay is drawn shows here before it moves a golden.
func TestLatencyPinnedDraws(t *testing.T) {
	l := NewLatency(avtime.Millisecond, avtime.Second, 42)
	want := []avtime.WorldTime{344292, 951439, 447588}
	for i, w := range want {
		if got := l.Sample(); got != w {
			t.Errorf("sample %d = %d, want %d", i, got, w)
		}
	}
}

// TestLatencyConcurrentSample draws from one model on four goroutines
// and checks that they share out exactly the serial draws.
func TestLatencyConcurrentSample(t *testing.T) {
	const goroutines, each = 4, 2500
	serial := NewLatency(0, avtime.Second, 9)
	want := make([]avtime.WorldTime, goroutines*each)
	for i := range want {
		want[i] = serial.Sample()
	}
	shared := NewLatency(0, avtime.Second, 9)
	got := make([]avtime.WorldTime, goroutines*each)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func(part []avtime.WorldTime) {
			defer wg.Done()
			for i := range part {
				part[i] = shared.Sample()
			}
		}(got[g*each : (g+1)*each])
	}
	wg.Wait()
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Error("concurrent samples are not the serial multiset")
	}
}

var latencySink *Latency

func TestLatencyAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() {
		latencySink = NewLatency(avtime.Millisecond, avtime.Millisecond, 3)
	}); a != 1 {
		t.Errorf("NewLatency allocates %v, want 1", a)
	}
	l := NewLatency(avtime.Millisecond, avtime.Millisecond, 3)
	if a := testing.AllocsPerRun(100, func() { l.Sample() }); a != 0 {
		t.Errorf("Sample allocates %v, want 0", a)
	}
}
