package avtime

import (
	"math"
	"testing"
	"testing/quick"
)

// minute is one minute of world time.
const minute = 60 * Second

// rateNTSC is NTSC color video's 30000/1001 frames per second, the rate
// that makes rates rational.
var rateNTSC = Rate{30000, 1001}

func TestWorldTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Errorf("String() = %q", got)
	}
}

func TestMakeRateNormalises(t *testing.T) {
	r := MakeRate(60, 2)
	if r.N != 30 || r.D != 1 {
		t.Errorf("MakeRate(60,2) = %v, want 30/1", r)
	}
	r = MakeRate(-30, -1)
	if r.N != 30 || r.D != 1 {
		t.Errorf("MakeRate(-30,-1) = %v, want 30/1", r)
	}
	if MakeRate(30000, 1001) != (Rate{30000, 1001}) {
		t.Error("NTSC rate should be in lowest terms already")
	}
}

func TestMakeRatePanics(t *testing.T) {
	for _, tc := range []struct{ n, d int64 }{{1, 0}, {0, 1}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeRate(%d,%d) did not panic", tc.n, tc.d)
				}
			}()
			MakeRate(tc.n, tc.d)
		}()
	}
}

func TestRateHzAndUnitDuration(t *testing.T) {
	if hz := RateVideo30.Hz(); hz != 30 {
		t.Errorf("30fps Hz = %v", hz)
	}
	if hz := rateNTSC.Hz(); math.Abs(hz-29.97) > 0.01 {
		t.Errorf("NTSC Hz = %v, want ≈29.97", hz)
	}
	if d := RateVideo30.UnitDuration(); d != 33333 {
		t.Errorf("30fps frame duration = %v µs, want 33333", int64(d))
	}
	if d := RateCDAudio.UnitDuration(); d != 23 {
		t.Errorf("CD sample duration = %v µs, want 23 (rounded)", int64(d))
	}
}

func TestRateDurationOfExact(t *testing.T) {
	// 30 frames at 30fps is exactly one second.
	if d := RateVideo30.DurationOf(30); d != Second {
		t.Errorf("30 frames @30fps = %v, want 1s", d)
	}
	// 44100 samples at 44.1kHz is exactly one second.
	if d := RateCDAudio.DurationOf(44100); d != Second {
		t.Errorf("44100 samples = %v, want 1s", d)
	}
	// 30000 frames of NTSC is exactly 1001 seconds.
	if d := rateNTSC.DurationOf(30000); d != 1001*Second {
		t.Errorf("30000 NTSC frames = %v, want 1001s", d)
	}
}

func TestRateUnitsIn(t *testing.T) {
	if n := RateVideo30.UnitsIn(Second); n != 30 {
		t.Errorf("frames in 1s = %d, want 30", n)
	}
	if n := RateVideo30.UnitsIn(Second - 1); n != 29 {
		t.Errorf("frames in 1s-1µs = %d, want 29", n)
	}
	if n := RateCDAudio.UnitsIn(minute); n != 44100*60 {
		t.Errorf("samples in 1min = %d, want %d", n, 44100*60)
	}
}

func TestRateRoundTripProperty(t *testing.T) {
	rates := []Rate{{24, 1}, RateVideo25, RateVideo30, rateNTSC, RateCDAudio, RateVoice}
	f := func(nRaw int32) bool {
		n := ObjectTime(nRaw)
		if n < 0 {
			n = -n
		}
		for _, r := range rates {
			// Units that fit inside the duration of n units must be ≥ n-1
			// and ≤ n (rounding may shave at most one unit boundary).
			d := r.DurationOf(n)
			back := r.UnitsIn(d)
			if back > n || back < n-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransformWorldObjectRoundTrip(t *testing.T) {
	tr := NewTransform(RateVideo30)
	for _, frame := range []ObjectTime{0, 1, 29, 30, 100, 7 * 30} {
		w := tr.ObjectToWorld(frame)
		if got := tr.WorldToObject(w); got != frame {
			t.Errorf("frame %d -> %v -> %d", frame, w, got)
		}
	}
}

func TestTransformTranslate(t *testing.T) {
	tr := NewTransform(RateVideo30).Translated(2 * Second)
	if got := tr.WorldToObject(2 * Second); got != 0 {
		t.Errorf("object time at start = %d, want 0", got)
	}
	if got := tr.WorldToObject(3 * Second); got != 30 {
		t.Errorf("object time 1s in = %d, want 30", got)
	}
	if got := tr.ObjectToWorld(30); got != 3*Second {
		t.Errorf("world time of frame 30 = %v, want 3s", got)
	}
}

func TestTransformScale(t *testing.T) {
	// Double speed: 60 frames are presented in one world second.
	tr := NewTransform(RateVideo30).Scaled(2)
	if got := tr.WorldToObject(Second); got != 60 {
		t.Errorf("frames at double speed in 1s = %d, want 60", got)
	}
	if got := tr.DurationOf(60); got != Second {
		t.Errorf("duration of 60 frames at 2x = %v, want 1s", got)
	}
	// Half speed.
	tr = NewTransform(RateVideo30).Scaled(0.5)
	if got := tr.WorldToObject(2 * Second); got != 30 {
		t.Errorf("frames at half speed in 2s = %d, want 30", got)
	}
}

func TestTransformMonotonicProperty(t *testing.T) {
	tr := NewTransform(rateNTSC).Translated(-Second).Scaled(1.5)
	f := func(aRaw, bRaw int32) bool {
		a, b := WorldTime(aRaw)*Millisecond, WorldTime(bRaw)*Millisecond
		if a > b {
			a, b = b, a
		}
		return tr.WorldToObject(a) <= tr.WorldToObject(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := IntervalOf(Second, 3*Second)
	if iv.Dur != 2*Second || iv.End() != 3*Second {
		t.Errorf("interval = %v", iv)
	}
	if iv.IsEmpty() {
		t.Error("non-empty interval reported empty")
	}
	if got := iv.String(); got != "[1.000000s, 3.000000s)" {
		t.Errorf("String = %q", got)
	}
}

func TestIntervalOfPanicsOnReversed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntervalOf(3,1) did not panic")
		}
	}()
	IntervalOf(3*Second, Second)
}

func TestIntervalIntersectUnion(t *testing.T) {
	a := IntervalOf(0, 2*Second)
	b := IntervalOf(Second, 3*Second)
	if u := a.Union(b); u != IntervalOf(0, 3*Second) {
		t.Errorf("Union = %v", u)
	}
	if u := a.Union(IntervalOf(5*Second, 6*Second)); u != IntervalOf(0, 6*Second) {
		t.Errorf("disjoint Union = %v", u)
	}
	empty := Interval{}
	if u := empty.Union(a); u != a {
		t.Errorf("empty union = %v", u)
	}
	if u := a.Union(empty); u != a {
		t.Errorf("union empty = %v", u)
	}
}

func TestAllenRelations(t *testing.T) {
	s := func(a, b WorldTime) Interval { return IntervalOf(a*Second, b*Second) }
	cases := []struct {
		a, b Interval
		want Relation
	}{
		{s(0, 1), s(2, 3), RelBefore},
		{s(0, 1), s(1, 2), RelMeets},
		{s(0, 2), s(1, 3), RelOverlaps},
		{s(0, 1), s(0, 2), RelStarts},
		{s(1, 2), s(0, 3), RelDuring},
		{s(2, 3), s(0, 3), RelFinishes},
		{s(0, 1), s(0, 1), RelEqual},
		{s(0, 3), s(2, 3), RelFinishedBy},
		{s(0, 3), s(1, 2), RelContains},
		{s(0, 2), s(0, 1), RelStartedBy},
		{s(1, 3), s(0, 2), RelOverlappedBy},
		{s(1, 2), s(0, 1), RelMetBy},
		{s(2, 3), s(0, 1), RelAfter},
	}
	for _, tc := range cases {
		if got := Relate(tc.a, tc.b); got != tc.want {
			t.Errorf("Relate(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAllenInverseProperty(t *testing.T) {
	f := func(a1, d1, b1, d2 uint16) bool {
		a := Interval{WorldTime(a1), WorldTime(d1%100) + 1}
		b := Interval{WorldTime(b1), WorldTime(d2%100) + 1}
		// The relations are listed in mirror order: swapping the
		// arguments reflects the relation about RelEqual.
		return RelAfter-Relate(a, b)+RelBefore == Relate(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationString(t *testing.T) {
	if RelBefore.String() != "before" || RelMetBy.String() != "met-by" {
		t.Error("relation names wrong")
	}
	if Relation(99).String() != "Relation(99)" {
		t.Error("out-of-range relation name wrong")
	}
}

func TestRateStringAndIsZero(t *testing.T) {
	if RateVideo30.String() != "30Hz" {
		t.Errorf("String = %q", RateVideo30.String())
	}
	if rateNTSC.String() != "30000/1001Hz" {
		t.Errorf("NTSC String = %q", rateNTSC.String())
	}
	if !(Rate{}).IsZero() || RateVideo30.IsZero() {
		t.Error("IsZero wrong")
	}
	// Zero-value rate degenerates safely.
	var z Rate
	if z.Hz() != 0 || z.UnitDuration() != 0 || z.DurationOf(10) != 0 || z.UnitsIn(Second) != 0 {
		t.Error("zero rate arithmetic wrong")
	}
}

func TestTransformDegenerateCases(t *testing.T) {
	var z Transform
	if z.WorldToObject(Second) != 0 {
		t.Error("zero transform WorldToObject wrong")
	}
	if z.ObjectToWorld(5) != 0 {
		t.Error("zero transform ObjectToWorld wrong")
	}
	if z.DurationOf(5) != 0 {
		t.Error("zero transform DurationOf wrong")
	}
}

func TestMulDivNegativeOperands(t *testing.T) {
	// Negative world times flow through the exact division helpers.
	tr := NewTransform(RateVideo30)
	if got := tr.Rate.UnitsIn(-Second); got != -30 {
		t.Errorf("UnitsIn(-1s) = %d, want -30", got)
	}
	if got := tr.Rate.DurationOf(-30); got != -Second {
		t.Errorf("DurationOf(-30) = %v, want -1s", got)
	}
}

func TestGCDSignsAndZero(t *testing.T) {
	// MakeRate only passes positive operands; the helper itself takes
	// either sign and never returns zero.
	for _, c := range []struct{ a, b, want int64 }{
		{12, 8, 4}, {-12, 8, 4}, {12, -8, 4}, {0, 5, 5}, {7, 0, 7}, {-7, 0, 7}, {0, 0, 1},
	} {
		if got := gcd(c.a, c.b); got != c.want {
			t.Errorf("gcd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMulDivBeforeOrigin(t *testing.T) {
	// A negative dividend leaves a negative remainder, which both helpers
	// make Euclidean: floor rounds toward -inf, round takes halves up.
	for _, c := range []struct{ a, b, c, round, floor int64 }{
		{-1, 1, 2, 0, -1},                   // -0.5
		{-7, 1, 2, -3, -4},                  // -3.5
		{-1, 1_000_000, 30, -33333, -33334}, // -33333.3
		{-2, 1_000_000, 30, -66667, -66667}, // -66666.7
	} {
		if got := mulDivRound(c.a, c.b, c.c); got != c.round {
			t.Errorf("mulDivRound(%d, %d, %d) = %d, want %d", c.a, c.b, c.c, got, c.round)
		}
		if got := mulDivFloor(c.a, c.b, c.c); got != c.floor {
			t.Errorf("mulDivFloor(%d, %d, %d) = %d, want %d", c.a, c.b, c.c, got, c.floor)
		}
	}
	// Through the rate API: one unit before the origin, and one
	// microsecond before it.
	if got := RateVideo30.DurationOf(-1); got != -33333 {
		t.Errorf("DurationOf(-1) = %d µs, want -33333", int64(got))
	}
	if got := RateVideo30.UnitsIn(-1); got != -1 {
		t.Errorf("UnitsIn(-1 µs) = %d, want -1", got)
	}
}
