// Package avtime provides the temporal coordinate systems used throughout
// the AV database: world time, object time, rational media rates, and the
// transforms between them.
//
// The model follows §4.1 of Gibbs, Breiteneder and Tsichritzis,
// "Audio/Video Databases: An Object-Oriented Approach" (ICDE 1993): every
// media value lives in two coordinate systems.  World time is the global
// presentation timeline shared by all values and activities; its unit is
// fixed by this package (one microsecond).  Object time is media-local —
// frame numbers for video, sample numbers for audio — and its unit is a
// subclass responsibility, expressed here as a rational Rate.
package avtime

import (
	"fmt"
	"math"
)

// WorldTime is a point on (or a span of) the global presentation timeline.
// The unit is one microsecond.  Microsecond resolution is fine enough to
// place individual samples of CD audio (one sample ≈ 22.7µs) while keeping
// arithmetic in int64 exact for timelines of tens of thousands of hours.
type WorldTime int64

// Convenient world-time spans.
const (
	Microsecond WorldTime = 1
	Millisecond           = 1000 * Microsecond
	Second                = 1000 * Millisecond
)

// Seconds reports the span as floating-point seconds.
func (w WorldTime) Seconds() float64 {
	return float64(w) / float64(Second)
}

// String formats the world time as seconds with microsecond precision,
// e.g. "1.500000s".
func (w WorldTime) String() string {
	return fmt.Sprintf("%.6fs", w.Seconds())
}

// ObjectTime is a point in a media value's own coordinate system: a frame
// index for video, a sample index for audio, a cue index for timed text.
// The duration of one object-time unit is given by the value's Rate.
type ObjectTime int64

// Rate is a rational number of object-time units per second.  Rates are
// rational rather than floating point so that NTSC video (30000/1001
// frames per second) and long-running sample clocks stay exact.
type Rate struct {
	N int64 // units
	D int64 // per D seconds
}

// Common media rates.
var (
	RateVideo25 = Rate{25, 1}    // PAL/CCIR 625-line video
	RateVideo30 = Rate{30, 1}    // the paper's video timecode unit (1/30 s)
	RateCDAudio = Rate{44100, 1} // CD encoded audio samples
	RateFMAudio = Rate{22050, 1} // "FM-quality" audio
	RateVoice   = Rate{8000, 1}  // "voice-quality" audio
)

// MakeRate returns the rate n/d, normalised to lowest terms with a positive
// denominator.  It panics if d is zero or the rate is not positive; rates
// describe physical unit frequencies and are always > 0.
func MakeRate(n, d int64) Rate {
	if d == 0 {
		panic("avtime: rate with zero denominator")
	}
	if d < 0 {
		n, d = -n, -d
	}
	if n <= 0 {
		panic("avtime: rate must be positive")
	}
	g := gcd(n, d)
	return Rate{n / g, d / g}
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// IsZero reports whether r is the zero value (no rate set).
func (r Rate) IsZero() bool { return r.N == 0 && r.D == 0 }

// Hz reports the rate in units per second as a float.
func (r Rate) Hz() float64 {
	if r.D == 0 {
		return 0
	}
	return float64(r.N) / float64(r.D)
}

// UnitDuration reports the world-time duration of a single object-time
// unit, rounded to the nearest microsecond.
func (r Rate) UnitDuration() WorldTime {
	if r.N == 0 {
		return 0
	}
	return WorldTime((int64(Second)*r.D + r.N/2) / r.N)
}

// DurationOf reports the world-time duration of n object-time units at
// rate r, rounded to the nearest microsecond.
func (r Rate) DurationOf(n ObjectTime) WorldTime {
	if r.N == 0 {
		return 0
	}
	// n units take n*D/N seconds = n*D*Second/N microseconds.
	return WorldTime(mulDivRound(int64(n)*r.D, int64(Second), r.N))
}

// UnitsIn reports how many whole object-time units fit in the world-time
// span w at rate r.
func (r Rate) UnitsIn(w WorldTime) ObjectTime {
	if r.D == 0 {
		return 0
	}
	return ObjectTime(mulDivFloor(int64(w), r.N, r.D*int64(Second)))
}

// String formats the rate, e.g. "30/1 Hz" prints as "30Hz" and NTSC as
// "30000/1001Hz".
func (r Rate) String() string {
	if r.D == 1 {
		return fmt.Sprintf("%dHz", r.N)
	}
	return fmt.Sprintf("%d/%dHz", r.N, r.D)
}

// mulDivRound computes round(a*b/c) for c > 0, b ≥ 0, exactly, by splitting
// a into quotient and Euclidean remainder so the intermediate product r*b
// stays far from int64 overflow for the magnitudes used here (b up to 10^6,
// r < c up to ~10^9).
func mulDivRound(a, b, c int64) int64 {
	q, r := a/c, a%c
	if r < 0 {
		r += c
		q--
	}
	return q*b + (r*b+c/2)/c
}

// mulDivFloor computes floor(a*b/c) for c > 0, b ≥ 0 under the same range
// assumptions as mulDivRound.
func mulDivFloor(a, b, c int64) int64 {
	q, r := a/c, a%c
	if r < 0 {
		r += c
		q--
	}
	return q*b + r*b/c
}

// Transform maps between world time and object time for one media value.
// Object time o corresponds to world time
//
//	w = Translate + ObjectToWorld-span(o) / Scale
//
// Scale is the playback-speed factor (2 = double speed: the same object
// span occupies half the world span); Translate is the world time at which
// object time zero is presented.  A zero Transform (Scale 0) is invalid;
// use NewTransform.
type Transform struct {
	Rate      Rate      // object units per second at Scale 1
	Scale     float64   // speed factor, must be > 0
	Translate WorldTime // world time of object time 0
}

// NewTransform returns the identity-speed transform for rate r starting at
// world time zero.
func NewTransform(r Rate) Transform {
	return Transform{Rate: r, Scale: 1, Translate: 0}
}

// WorldToObject maps a world time to the object time presented at that
// instant.  Times before the start map to negative object times.
func (t Transform) WorldToObject(w WorldTime) ObjectTime {
	if t.Rate.D == 0 || t.Scale == 0 {
		return 0
	}
	elapsed := float64(w-t.Translate) * t.Scale
	units := elapsed * t.Rate.Hz() / float64(Second)
	// Guard against float error pushing an exact unit boundary just below
	// its integer (e.g. 99.99999999 for frame 100).
	return ObjectTime(math.Floor(units + 1e-6))
}

// ObjectToWorld maps an object time to the first whole microsecond at
// which that unit is being presented.  Rounding is upward so that the
// returned instant always lies inside the unit's presentation span, which
// makes WorldToObject(ObjectToWorld(o)) == o.
func (t Transform) ObjectToWorld(o ObjectTime) WorldTime {
	if t.Rate.N == 0 || t.Scale == 0 {
		return t.Translate
	}
	seconds := float64(o) * float64(t.Rate.D) / float64(t.Rate.N)
	return t.Translate + WorldTime(math.Ceil(seconds*float64(Second)/t.Scale-1e-6))
}

// Scaled returns a copy of the transform with its speed multiplied by f.
// Corresponds to MediaValue.Scale(float) in the paper's framework.
func (t Transform) Scaled(f float64) Transform {
	t.Scale *= f
	return t
}

// Translated returns a copy of the transform shifted by dw in world time.
// Corresponds to MediaValue.Translate(WorldTime) in the paper's framework.
func (t Transform) Translated(dw WorldTime) Transform {
	t.Translate += dw
	return t
}

// DurationOf reports the world-time duration occupied by n object units
// under this transform (rate and scale applied).
func (t Transform) DurationOf(n ObjectTime) WorldTime {
	if t.Scale == 0 {
		return 0
	}
	base := t.Rate.DurationOf(n)
	return WorldTime(math.Round(float64(base) / t.Scale))
}
