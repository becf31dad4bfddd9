package main

import "time"

// TimeProvider is the single source of host time in bench/: every
// duration the harness reports is the difference of two Now() readings
// from the provider injected at start-up.  The program under test never
// sees it — avdb itself runs on virtual time only.
type TimeProvider interface {
	Now() time.Time
}

// hostClock reads the operating system's monotonic clock.
type hostClock struct{}

func (hostClock) Now() time.Time { return time.Now() }

// fakeClock is the deterministic provider the unit tests inject: every
// reading advances it by Step, so a span that makes n readings between
// its start and end lasts exactly n×Step.
type fakeClock struct {
	T    time.Time
	Step time.Duration
}

func (f *fakeClock) Now() time.Time {
	f.T = f.T.Add(f.Step)
	return f.T
}

// stopwatch turns a TimeProvider into nanosecond offsets from a fixed
// epoch, the unit spans and phase timers are kept in.
type stopwatch struct {
	clock TimeProvider
	epoch time.Time
}

func newStopwatch(c TimeProvider) *stopwatch {
	return &stopwatch{clock: c, epoch: c.Now()}
}

// now returns nanoseconds since the stopwatch was created.
func (s *stopwatch) now() int64 { return int64(s.clock.Now().Sub(s.epoch)) }
