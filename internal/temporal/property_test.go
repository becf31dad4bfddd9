package temporal

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// Property tests over randomly built composites, fixed-seed so failures
// reproduce.  Tracks are cheap text streams placed at random offsets.

const propIterations = 300

// randomComposite builds a composite of 1..6 text-stream tracks with
// random durations and translations.
func randomComposite(t *testing.T, r *rand.Rand) *Composite {
	t.Helper()
	c := NewComposite("prop")
	n := 1 + r.Intn(6)
	for i := 0; i < n; i++ {
		v := media.NewTextStreamValue(avtime.ObjectTime(1 + r.Intn(5000))) // up to 5s of 1ms ticks
		v.Translate(avtime.WorldTime(r.Int63n(int64(10 * avtime.Second))))
		if err := c.Add(fmt.Sprintf("track%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestPropHullContainsEveryTrack(t *testing.T) {
	r := rand.New(rand.NewSource(1993))
	for i := 0; i < propIterations; i++ {
		c := randomComposite(t, r)
		hull := c.Interval()
		for _, tr := range c.tracks {
			if iv := tr.Interval(); iv.Start < hull.Start || iv.End() > hull.End() {
				t.Fatalf("iter %d: hull %v misses track %s %v", i, hull, tr.Name, tr.Interval())
			}
		}
	}
}

func TestPropTranslateShiftsAndInverts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < propIterations; i++ {
		c := randomComposite(t, r)
		before := make(map[string]avtime.Interval)
		for _, tr := range c.tracks {
			before[tr.Name] = tr.Interval()
		}
		hull := c.Interval()
		d := avtime.WorldTime(r.Int63n(int64(60*avtime.Second)) - int64(30*avtime.Second))
		c.Translate(d)
		if got, want := c.Interval(), shift(hull, d); got != want {
			t.Fatalf("iter %d: Translate(%v) moved hull %v to %v, want %v", i, d, hull, got, want)
		}
		for _, tr := range c.tracks {
			if want := shift(before[tr.Name], d); tr.Interval() != want {
				t.Fatalf("iter %d: track %s moved to %v, want %v", i, tr.Name, tr.Interval(), want)
			}
		}
		c.Translate(-d)
		for _, tr := range c.tracks {
			if tr.Interval() != before[tr.Name] {
				t.Fatalf("iter %d: Translate(-%v) did not restore track %s", i, d, tr.Name)
			}
		}
	}
}

func TestPropVerifyAcceptsActualRelations(t *testing.T) {
	// Correlations derived from the tracks' actual placements must verify;
	// translation preserves all pairwise relations, so they must still
	// verify after the composite moves.
	r := rand.New(rand.NewSource(42))
	for i := 0; i < propIterations; i++ {
		c := randomComposite(t, r)
		tracks := c.tracks
		var spec []Correlation
		for _, a := range tracks {
			for _, b := range tracks {
				if a == b {
					continue
				}
				spec = append(spec, Correlation{A: a.Name, B: b.Name, Rel: avtime.Relate(a.Interval(), b.Interval())})
			}
		}
		if err := c.Verify(spec); err != nil {
			t.Fatalf("iter %d: self-derived correlations rejected: %v", i, err)
		}
		c.Translate(avtime.WorldTime(r.Int63n(int64(60 * avtime.Second))))
		if err := c.Verify(spec); err != nil {
			t.Fatalf("iter %d: relations not translation-invariant: %v", i, err)
		}
	}
}

func TestPropTimelineBoundariesSortedUnique(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < propIterations; i++ {
		c := randomComposite(t, r)
		marks := c.Timeline().Boundaries()
		if !sort.SliceIsSorted(marks, func(a, b int) bool { return marks[a] < marks[b] }) {
			t.Fatalf("iter %d: boundaries not sorted: %v", i, marks)
		}
		seen := make(map[avtime.WorldTime]bool)
		for _, m := range marks {
			if seen[m] {
				t.Fatalf("iter %d: duplicate boundary %v", i, m)
			}
			seen[m] = true
		}
		// Every track endpoint appears.
		for _, tr := range c.tracks {
			if !seen[tr.Interval().Start] || !seen[tr.Interval().End()] {
				t.Fatalf("iter %d: track %s endpoints missing from %v", i, tr.Name, marks)
			}
		}
	}
}

func TestPropActiveAtMatchesContainment(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < propIterations; i++ {
		c := randomComposite(t, r)
		w := avtime.WorldTime(r.Int63n(int64(20 * avtime.Second)))
		active := make(map[string]bool)
		for _, tr := range c.ActiveAt(w) {
			active[tr.Name] = true
		}
		for _, tr := range c.tracks {
			if tr.Interval().Contains(w) != active[tr.Name] {
				t.Fatalf("iter %d: ActiveAt(%v) disagrees with %s interval %v", i, w, tr.Name, tr.Interval())
			}
		}
	}
}

// shift returns iv translated by d on the world timeline.
func shift(iv avtime.Interval, d avtime.WorldTime) avtime.Interval {
	iv.Start += d
	return iv
}
