package sched

import (
	"sync"

	"avdb/internal/avtime"
)

// Resync is the resynchronization controller a composite activity uses to
// keep its component streams temporally correlated.  Each track reports
// the latency of every delivery; the controller maintains an exponential
// moving estimate per track and prescribes a per-track delay (correction)
// that lines all tracks up on the slowest one.  "Such a composite would
// maintain the synchronization of its component activities, assuring that
// the streams corresponding to the different tracks remain temporally
// correlated" (§4.2).
type Resync struct {
	alpha float64 // smoothing factor in (0, 1]

	mu  sync.Mutex
	est map[string]float64 // track -> smoothed latency in µs
}

// NewResync returns a controller with the given smoothing factor; alpha 1
// tracks the last observation only, small alphas smooth heavily.
func NewResync(alpha float64) *Resync {
	if alpha <= 0 || alpha > 1 {
		panic("sched: resync alpha must be in (0, 1]")
	}
	return &Resync{alpha: alpha, est: make(map[string]float64)}
}

// Observe feeds one delivery latency for a track.
func (r *Resync) Observe(track string, latency avtime.WorldTime) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.est[track]; ok {
		r.est[track] = prev + r.alpha*(float64(latency)-prev)
	} else {
		r.est[track] = float64(latency)
	}
}

// Correction reports the delay a track should add so that it aligns with
// the slowest track seen so far.  Unknown tracks get zero.
func (r *Resync) Correction(track string) avtime.WorldTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.est[track]
	if !ok {
		return 0
	}
	var maxEst float64
	for _, v := range r.est {
		if v > maxEst {
			maxEst = v
		}
	}
	c := avtime.WorldTime(maxEst - e)
	if c < 0 {
		return 0
	}
	return c
}

// Skew reports the spread (max - min) of a set of per-track arrival
// times; zero for fewer than two tracks.
func Skew(arrivals map[string]avtime.WorldTime) avtime.WorldTime {
	if len(arrivals) < 2 {
		return 0
	}
	first := true
	var lo, hi avtime.WorldTime
	for _, a := range arrivals {
		if first {
			lo, hi = a, a
			first = false
			continue
		}
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	return hi - lo
}
