package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {99, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(xs, n=4) returns, the rule the benchmark's
// steadiness is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{1.5, 9, 4, 4, 2, 7, 3}, 2, 4, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := relSpread([]float64{10, 20, 30, 40, 50}); got != 1 {
		t.Errorf("relSpread(10..50) = %v, want (45-15)/30 = 1", got)
	}
}

func TestShareAndRatio(t *testing.T) {
	if got := sharePct(1, 4); got != 25 {
		t.Errorf("sharePct(1, 4) = %v", got)
	}
	if got := sharePct(1, 0); got != 0 {
		t.Errorf("sharePct(1, 0) = %v, want 0", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

func TestLateHistIsExact(t *testing.T) {
	h := newLateHist(100)
	for us := int64(0); us < 1000; us++ {
		h.add(us) // 100 in range, 900 in the overflow
	}
	h.add(-5) // early frames are on time: lateness 0
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 499}, {99, 989}, {100, 999}, {0.1, 0}} {
		if got := h.percentileUS(c.p); got != c.want {
			t.Errorf("percentileUS(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestSpanSelfTime drives the recorder with the fake clock: every
// reading advances it one microsecond, so span lengths are known exactly.
func TestSpanSelfTime(t *testing.T) {
	sw := newStopwatch(&fakeClock{Step: time.Microsecond})
	r := newRecorder(sw, 16)
	run := r.begin(noSpan, "bench", "run") // t=1
	a := r.begin(run, "core", "Connect")   // t=2
	r.end(a)                               // t=3
	b := r.begin(run, "core", "Start")     // t=4
	c := r.begin(b, "sched", "Reserve")    // t=5
	r.end(c)                               // t=6
	r.end(b)                               // t=7
	r.end(run)                             // t=8
	spans := r.snapshot()
	self := selfTimes(spans)
	want := []int64{7000 - 1000 - 3000, 1000, 3000 - 1000, 1000}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d ns, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	agg := aggregate(spans, nil)
	if got := agg["core.Start"]; got.calls != 1 || got.ns != 3000 || got.self != 2000 {
		t.Errorf("aggregate core.Start = %+v", got)
	}
	if got := agg["core.Connect"].meanNS(); got != 1000 {
		t.Errorf("mean core.Connect = %v ns, want 1000", got)
	}
	var none *callStat
	if none.meanNS() != 0 || none.nsOrZero() != 0 {
		t.Error("a call that was never made must read zero")
	}

	// A nil recorder is the untraced mode: no clock reading, no span.
	var off *recorder
	before := sw.now()
	id := off.begin(noSpan, "core", "Connect")
	off.end(id)
	if id != noSpan || off.snapshot() != nil || sw.now()-before != 1000 {
		t.Error("the untraced recorder read the clock or recorded a span")
	}
}

// TestCoverage: coverage is the share of the stream phases spent inside
// calls into avdb, overlapping calls counted once.
func TestCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Layer: "bench", Name: "open", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "core", Name: "Connect", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "core", Name: "Bind", Start: 30, End: 60},                   // overlaps Connect by 10
		{ID: 3, Parent: 0, Layer: "activities", Name: "VideoReader.Tick", Start: 70, End: 90}, // ticks are inside Wait, not counted again
		{ID: 4, Parent: noSpan, Layer: "bench", Name: "browse", Start: 100, End: 200},
		{ID: 5, Parent: 4, Layer: "query", Name: "Select", Start: 110, End: 190}, // outside the stream phases
	}
	if got := coveredNS64(spans); got != 50 {
		t.Errorf("covered = %d ns, want 50", got)
	}
	// Shares of stream-phase time count only the calls made inside it.
	in := aggregate(spans, inStreamPhases(spans))
	if in["core.Connect"] == nil || in["bench.open"] == nil || in["query.Select"] != nil || in["bench.browse"] != nil {
		t.Errorf("calls kept as inside the stream phases: %v", in)
	}
}

// TestGCBetween: the runtime metrics are what the collector did inside
// the interval, not since the process started.
func TestGCBetween(t *testing.T) {
	ms := time.Millisecond
	a := gcSample{cycles: 10, gcCPU: 1, totalCPU: 20, pauses: []time.Duration{9 * ms}}
	b := gcSample{cycles: 13, gcCPU: 1.5, totalCPU: 30, pauses: []time.Duration{ms, 3 * ms, 2 * ms, 9 * ms}}
	cycles, cpuPct, pauseMS := gcBetween(a, b)
	if cycles != 3 || cpuPct != 5 || pauseMS != 3 {
		t.Errorf("gcBetween = %d cycles, %v%% CPU, %v ms; want 3, 5, 3", cycles, cpuPct, pauseMS)
	}
	if cycles, _, pauseMS := gcBetween(b, b); cycles != 0 || pauseMS != 0 {
		t.Errorf("an empty interval reports %d cycles and a %v ms pause", cycles, pauseMS)
	}
}

func TestRepeatSummary(t *testing.T) {
	values := make(map[string][]float64)
	for _, def := range endToEndDefs {
		values[def.name] = []float64{100, 100, 100, 100, 100}
	}
	o := options{workload: "vod_zipf", seed: 1, repeat: 5}
	if sum := summarize(o, values); !sum.Stable {
		t.Errorf("identical runs are not stable: %+v", sum)
	}
	// A virtual metric must be identical, however small the difference.
	values["late_ms_p99"] = []float64{100, 100, 100, 100, 100.001}
	sum := summarize(o, values)
	if sum.Stable || sum.Metrics["late_ms_p99"].Stable {
		t.Error("a virtual metric that differs between runs of one seed was called stable")
	}
	values["late_ms_p99"] = []float64{100, 100, 100, 100, 100}
	// A host-time metric is held to its bound.
	values["frames_per_s"] = []float64{60, 80, 100, 120, 140}
	sum = summarize(o, values)
	if sum.Stable || sum.Metrics["frames_per_s"].Stable || !sum.Metrics["setup_s"].Stable {
		t.Errorf("frames_per_s spread %v against bound %v was called stable", sum.Metrics["frames_per_s"].Spread, sum.Metrics["frames_per_s"].Bound)
	}
}
