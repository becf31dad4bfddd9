package sched

import (
	"fmt"

	"avdb/internal/avtime"
	"avdb/internal/obs"
)

// Monitor accumulates the scheduled-versus-actual presentation times of
// one stream and summarizes how well it held its deadlines.  It is the
// measurement side of client-visible scheduling: the admission-control
// experiments report deadline-miss rates from Monitors.
type Monitor struct {
	tolerance avtime.WorldTime

	// An installed sink's handles; nil without one.
	presented, missed *obs.Counter
	lateness          *obs.Histogram

	count   int
	misses  int
	maxLate avtime.WorldTime
	sumLate avtime.WorldTime
}

// NewMonitor returns a monitor that counts a presentation as missed when
// it runs later than tolerance past its scheduled time.
func NewMonitor(tolerance avtime.WorldTime) *Monitor {
	if tolerance < 0 {
		panic("sched: negative deadline tolerance")
	}
	return &Monitor{tolerance: tolerance}
}

// SetSink installs an observability sink.  Each Record emits
// deadline.presented (and deadline.missed when late past tolerance) and
// observes the lateness into the deadline.lateness_us histogram.
func (m *Monitor) SetSink(s obs.Sink) {
	m.presented, m.missed, m.lateness = nil, nil, nil
	if s != nil {
		m.presented = s.Counter("deadline.presented")
		m.missed = s.Counter("deadline.missed")
		m.lateness = s.Histogram("deadline.lateness_us")
	}
}

// Record notes one presentation.
func (m *Monitor) Record(scheduled, actual avtime.WorldTime) {
	m.count++
	late := actual - scheduled
	if late < 0 {
		late = 0
	}
	m.sumLate += late
	if late > m.maxLate {
		m.maxLate = late
	}
	missed := late > m.tolerance
	if missed {
		m.misses++
	}
	m.presented.Add(1)
	if missed {
		m.missed.Add(1)
	}
	m.lateness.Observe(int64(late))
}

// Misses reports how many presentations ran later than the tolerance.
func (m *Monitor) Misses() int { return m.misses }

// MissRate reports the fraction of missed deadlines.
func (m *Monitor) MissRate() float64 {
	if m.count == 0 {
		return 0
	}
	return float64(m.misses) / float64(m.count)
}

// MaxLateness reports the worst observed lateness.
func (m *Monitor) MaxLateness() avtime.WorldTime { return m.maxLate }

// String summarizes the monitor.
func (m *Monitor) String() string {
	return fmt.Sprintf("%d presented, %d missed (%.1f%%), max %v late",
		m.count, m.misses, 100*m.MissRate(), m.maxLate)
}
