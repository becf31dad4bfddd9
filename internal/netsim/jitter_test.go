package netsim

import (
	"math"
	"slices"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// jitterLink has no propagation latency and carries empty transfers,
// so a delivery's time is its jitter alone.
func jitterLink() *Link {
	return NewLink("j", 100*media.MBPerSecond, 0, 5*avtime.Millisecond, 99)
}

func connect(t *testing.T, l *Link) *Conn {
	t.Helper()
	c, err := l.Connect(media.MBPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func jitter(t *testing.T, c *Conn) avtime.WorldTime {
	t.Helper()
	d, err := c.TransferChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	return d.Time
}

// TestJitterUniform checks one connection's jitter over 10⁵ transfers:
// none outside [0, J], the smallest and largest within 0.1% of its
// ends, the mean within 4.5 standard errors of J/2, and χ² over 100
// bins below 148.2 (99 degrees of freedom, p = 0.001).
func TestJitterUniform(t *testing.T) {
	l := jitterLink()
	j := l.MaxJitter()
	c := connect(t, l)
	const bins, n = 100, 100_000
	bin := func(d avtime.WorldTime) int { return int(int64(d) * bins / int64(j+1)) }
	var width, seen [bins]float64
	for d := avtime.WorldTime(0); d <= j; d++ {
		width[bin(d)]++
	}
	lo, hi, sum := j, avtime.WorldTime(0), 0.0
	for range n {
		d := jitter(t, c)
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
}

// TestJitterPinnedDraws pins a fixed seed's first draws on its first
// two connections, so any change to how jitter is drawn or keyed shows
// here before it moves a golden.
func TestJitterPinnedDraws(t *testing.T) {
	l := jitterLink()
	for id, want := range [][]avtime.WorldTime{{2251, 1183, 3752}, {4733, 4105, 3691}} {
		c := connect(t, l)
		for i, w := range want {
			if got := jitter(t, c); got != w {
				t.Errorf("connection %d, transfer %d: jitter %d, want %d", id, i, got, w)
			}
		}
	}
}

// TestJitterOrderFree checks that a connection's delivery times do not
// depend on what the link's other connections carry in between.
func TestJitterOrderFree(t *testing.T) {
	const transfers = 50
	alone := func() []avtime.WorldTime {
		l := jitterLink()
		a := connect(t, l)
		connect(t, l)
		var ts []avtime.WorldTime
		for range transfers {
			ts = append(ts, jitter(t, a))
		}
		return ts
	}()
	l := jitterLink()
	a, b := connect(t, l), connect(t, l)
	var interleaved []avtime.WorldTime
	for i := range transfers {
		for range i % 3 {
			jitter(t, b)
		}
		interleaved = append(interleaved, jitter(t, a))
	}
	if !slices.Equal(interleaved, alone) {
		t.Errorf("jitter with other transfers between\n%v\nwant\n%v", interleaved, alone)
	}
}

var connSink *Conn

func TestJitterAllocs(t *testing.T) {
	l := jitterLink()
	if a := testing.AllocsPerRun(100, func() {
		connSink, _ = l.Connect(media.MBPerSecond)
		connSink.Close()
	}); a != 1 {
		t.Errorf("Connect allocates %v, want 1", a)
	}
	c := connect(t, l)
	if a := testing.AllocsPerRun(100, func() { c.TransferChunk(1024) }); a != 0 {
		t.Errorf("TransferChunk allocates %v, want 0", a)
	}
}
