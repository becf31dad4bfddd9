package avtime

import (
	"math/rand"
	"testing"
)

// Property tests: randomized but fixed-seed, so failures reproduce.
// Each property is an algebraic law the package documents; the random
// walk just visits far more of the input space than table tests do.

const propIterations = 2000

func propRand() *rand.Rand { return rand.New(rand.NewSource(1993)) }

// randomRate draws from the published media rates plus arbitrary
// normalized rationals.
func randomRate(r *rand.Rand) Rate {
	common := []Rate{{24, 1}, RateVideo25, RateVideo30, rateNTSC,
		RateCDAudio, {48000, 1}, RateFMAudio, RateVoice}
	if r.Intn(2) == 0 {
		return common[r.Intn(len(common))]
	}
	return MakeRate(1+r.Int63n(100_000), 1+r.Int63n(2000))
}

func TestPropTransformRoundTrip(t *testing.T) {
	// The documented contract of ObjectToWorld: the returned instant lies
	// inside the unit's presentation span, so WorldToObject inverts it.
	r := propRand()
	for i := 0; i < propIterations; i++ {
		tr := NewTransform(randomRate(r)).Translated(WorldTime(r.Int63n(int64(60*minute)) - int64(30*minute)))
		o := ObjectTime(r.Int63n(10_000_000))
		if got := tr.WorldToObject(tr.ObjectToWorld(o)); got != o {
			t.Fatalf("iter %d: rate %v translate %v: WorldToObject(ObjectToWorld(%d)) = %d",
				i, tr.Rate, tr.Translate, o, got)
		}
	}
}

func TestPropTransformTranslateInverts(t *testing.T) {
	r := propRand()
	for i := 0; i < propIterations; i++ {
		tr := NewTransform(randomRate(r)).Translated(WorldTime(r.Int63n(int64(60 * minute))))
		d := WorldTime(r.Int63n(int64(60*minute)) - int64(30*minute))
		if got := tr.Translated(d).Translated(-d); got != tr {
			t.Fatalf("iter %d: Translated(%v).Translated(-%v) = %+v, want %+v", i, d, d, got, tr)
		}
	}
}

func TestPropRateNormalizationInvariant(t *testing.T) {
	// Scaling numerator and denominator by the same factor denotes the
	// same frequency, and every derived quantity must agree.
	r := propRand()
	for i := 0; i < propIterations; i++ {
		n, d := 1+r.Int63n(100_000), 1+r.Int63n(2000)
		k := 1 + r.Int63n(50)
		a, b := MakeRate(n, d), MakeRate(k*n, k*d)
		if a != b {
			t.Fatalf("iter %d: MakeRate(%d,%d) = %v but MakeRate(%d,%d) = %v", i, n, d, a, k*n, k*d, b)
		}
	}
}

func TestPropRateDurationMonotoneAndAdditive(t *testing.T) {
	r := propRand()
	for i := 0; i < propIterations; i++ {
		rate := randomRate(r)
		m := ObjectTime(r.Int63n(1_000_000))
		n := ObjectTime(r.Int63n(1_000_000))
		dm, dn, dmn := rate.DurationOf(m), rate.DurationOf(n), rate.DurationOf(m+n)
		if m <= n && dm > dn {
			t.Fatalf("iter %d: %v: DurationOf not monotone: %d->%v, %d->%v", i, rate, m, dm, n, dn)
		}
		// Round-to-nearest makes DurationOf additive to within 1µs.
		if diff := dmn - (dm + dn); diff < -1 || diff > 1 {
			t.Fatalf("iter %d: %v: DurationOf(%d+%d)=%v but parts sum to %v", i, rate, m, n, dmn, dm+dn)
		}
	}
}

func TestPropRateUnitsInFloor(t *testing.T) {
	// UnitsIn(w) is the number of WHOLE units in w: u units fit, u+1
	// don't.  (Note UnitsIn is not an inverse of DurationOf — DurationOf
	// rounds to nearest while UnitsIn floors.)
	r := propRand()
	for i := 0; i < propIterations; i++ {
		rate := randomRate(r)
		w := WorldTime(r.Int63n(int64(60 * minute)))
		u := rate.UnitsIn(w)
		if u < 0 {
			t.Fatalf("iter %d: %v: UnitsIn(%v) negative: %d", i, rate, w, u)
		}
		// u units span at most w; exact check via the rational: u*D*Second <= w*N.
		if int64(u)*rate.D*int64(Second) > int64(w)*rate.N {
			t.Fatalf("iter %d: %v: UnitsIn(%v) = %d overshoots", i, rate, w, u)
		}
		if int64(u+1)*rate.D*int64(Second) <= int64(w)*rate.N {
			t.Fatalf("iter %d: %v: UnitsIn(%v) = %d undershoots", i, rate, w, u)
		}
	}
}

func randomInterval(r *rand.Rand) Interval {
	return Interval{
		Start: WorldTime(r.Int63n(int64(minute))),
		Dur:   WorldTime(1 + r.Int63n(int64(10*Second))),
	}
}

func TestPropRelateInverse(t *testing.T) {
	r := propRand()
	for i := 0; i < propIterations; i++ {
		a, b := randomInterval(r), randomInterval(r)
		if r.Intn(4) == 0 { // force shared endpoints so the rarer relations occur
			b.Start = a.Start
		}
		if r.Intn(4) == 0 {
			b.Dur = a.End() - b.Start
			if b.Dur <= 0 {
				b.Dur = 1
			}
		}
		ab, ba := Relate(a, b), Relate(b, a)
		// Swapping the arguments mirrors the relation about RelEqual.
		if want := RelAfter - ab + RelBefore; ba != want {
			t.Fatalf("iter %d: Relate(%v,%v)=%v but Relate(%v,%v)=%v, want %v",
				i, a, b, ab, b, a, ba, want)
		}
		if Relate(a, a) != RelEqual {
			t.Fatalf("iter %d: Relate(%v,%v) = %v, want equal", i, a, a, Relate(a, a))
		}
	}
}

func TestPropIntervalAlgebra(t *testing.T) {
	r := propRand()
	for i := 0; i < propIterations; i++ {
		a, b := randomInterval(r), randomInterval(r)
		// The union is the convex hull: it covers both and no more.
		u := a.Union(b)
		if u.Start != min(a.Start, b.Start) || u.End() != max(a.End(), b.End()) {
			t.Fatalf("iter %d: union %v is not the hull of %v and %v", i, u, a, b)
		}
	}
}
