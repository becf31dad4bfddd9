// Package temporal implements temporal composition (§4.1): the
// aggregation of temporally correlated media values into multi-track
// composites, per-instance timeline diagrams in the style of the paper's
// Fig. 1, and verification of declared track correlations using Allen's
// interval algebra.
//
// "In general, temporal composition is necessary when a number of media
// values are simultaneously presented. ... A track-like structure is a
// common feature among the emerging multimedia data formats.  Temporal
// composition naturally describes this structure and so is essential to
// AV databases."
package temporal

import (
	"fmt"
	"math/bits"
	"strings"

	"avdb/internal/avtime"
	"avdb/internal/media"
)

// Track is one component of a temporal composite: a named media value
// positioned on the composite's world timeline via the value's own
// transform (Translate/Scale).
type Track struct {
	Name  string
	Value media.Value
}

// Interval reports the track's placement on the world timeline.
func (t *Track) Interval() avtime.Interval { return t.Value.Interval() }

// Composite is a tcomp instance: an ordered set of uniquely named tracks.
// Correlations between the tracks are "specified, on a per-instance
// basis, by a timeline diagram" — the placement of each track's value.
type Composite struct {
	name   string
	tracks []*Track
	byName map[string]*Track
}

// NewComposite returns an empty temporal composite.
func NewComposite(name string) *Composite {
	return &Composite{name: name, byName: make(map[string]*Track)}
}

// Name returns the composite's name.
func (c *Composite) Name() string { return c.name }

// Add appends a track; duplicate names are an error.
func (c *Composite) Add(name string, v media.Value) error {
	if name == "" {
		return fmt.Errorf("temporal: empty track name")
	}
	if v == nil {
		return fmt.Errorf("temporal: nil value for track %q", name)
	}
	if _, dup := c.byName[name]; dup {
		return fmt.Errorf("temporal: composite %q already has track %q", c.name, name)
	}
	t := &Track{Name: name, Value: v}
	c.tracks = append(c.tracks, t)
	c.byName[name] = t
	return nil
}

// NumTracks reports the number of tracks.
func (c *Composite) NumTracks() int { return len(c.tracks) }

// Track returns the named track.
func (c *Composite) Track(name string) (*Track, bool) {
	t, ok := c.byName[name]
	return t, ok
}

// Interval reports the convex hull of all track intervals.
func (c *Composite) Interval() avtime.Interval {
	var hull avtime.Interval
	for i, t := range c.tracks {
		if i == 0 {
			hull = t.Interval()
			continue
		}
		hull = hull.Union(t.Interval())
	}
	return hull
}

// Translate shifts every track by dw, moving the whole composite on the
// world timeline.
func (c *Composite) Translate(dw avtime.WorldTime) {
	for _, t := range c.tracks {
		t.Value.Translate(dw)
	}
}

// Correlation declares that track A stands in the given Allen relation to
// track B.
type Correlation struct {
	A, B string
	Rel  avtime.Relation
}

// String formats the correlation.
func (co Correlation) String() string {
	return fmt.Sprintf("%s %v %s", co.A, co.Rel, co.B)
}

// Verify checks every declared correlation against the tracks' actual
// intervals, returning an error describing the first violation.
func (c *Composite) Verify(spec []Correlation) error {
	for _, co := range spec {
		a, ok := c.byName[co.A]
		if !ok {
			return fmt.Errorf("temporal: correlation references unknown track %q", co.A)
		}
		b, ok := c.byName[co.B]
		if !ok {
			return fmt.Errorf("temporal: correlation references unknown track %q", co.B)
		}
		if got := avtime.Relate(a.Interval(), b.Interval()); got != co.Rel {
			return fmt.Errorf("temporal: %v violated: %s %v %s (intervals %v, %v)",
				co, co.A, got, co.B, a.Interval(), b.Interval())
		}
	}
	return nil
}

// Timeline is a snapshot of a composite's track placements, the data
// behind a timeline diagram.
type Timeline struct {
	Name    string
	Entries []TimelineEntry
}

// TimelineEntry is one row of a timeline diagram.
type TimelineEntry struct {
	Track    string
	Interval avtime.Interval
}

// Timeline captures the composite's current placements.
func (c *Composite) Timeline() *Timeline {
	tl := &Timeline{Name: c.name}
	for _, t := range c.tracks {
		tl.Entries = append(tl.Entries, TimelineEntry{Track: t.Name, Interval: t.Interval()})
	}
	return tl
}

// Boundaries returns the distinct start/end times across all entries, in
// ascending order — the t0, t1, t2... marks of the paper's Fig. 1.
func (tl *Timeline) Boundaries() []avtime.WorldTime {
	seen := make(map[avtime.WorldTime]bool)
	var out []avtime.WorldTime
	add := func(w avtime.WorldTime) {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for _, e := range tl.Entries {
		add(e.Interval.Start)
		add(e.Interval.End())
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ASCII renders the timeline as a diagram in the style of Fig. 1: one row
// per track, '=' inside the track's interval, '.' outside, with a
// boundary legend.  Width is the number of diagram columns (minimum 10).
func (tl *Timeline) ASCII(width int) string {
	if width < 10 {
		width = 10
	}
	if len(tl.Entries) == 0 {
		return fmt.Sprintf("%s: (empty)\n", tl.Name)
	}
	hull := tl.Entries[0].Interval
	nameWidth := len("time")
	for _, e := range tl.Entries {
		hull = hull.Union(e.Interval)
		if len(e.Track) > nameWidth {
			nameWidth = len(e.Track)
		}
	}
	if hull.Dur <= 0 {
		hull.Dur = 1
	}
	// col maps w to a column, clamped to [0, width].  The offset times
	// width takes a 128-bit product, so a hull near the top of the
	// int64 range still divides exactly.
	col := func(w avtime.WorldTime) int {
		if w <= hull.Start {
			return 0
		}
		off := uint64(w) - uint64(hull.Start)
		if off >= uint64(hull.Dur) {
			return width
		}
		hi, lo := bits.Mul64(off, uint64(width))
		c, _ := bits.Div64(hi, lo, uint64(hull.Dur))
		return int(c)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%v .. %v]\n", tl.Name, hull.Start, hull.End())
	for _, e := range tl.Entries {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		// An entry narrower than a column, a zero-length one included,
		// still shades one cell.
		lo, hi := col(e.Interval.Start), col(e.Interval.End())
		if hi == lo {
			hi = lo + 1
			if hi > width {
				lo, hi = width-1, width
			}
		}
		for i := lo; i < hi; i++ {
			row[i] = '='
		}
		fmt.Fprintf(&b, "  %-*s |%s|\n", nameWidth, e.Track, row)
	}
	// Boundary legend: t0, t1, ... with their world times.
	marks := tl.Boundaries()
	ruler := make([]byte, width+1)
	for i := range ruler {
		ruler[i] = ' '
	}
	for i, m := range marks {
		pos := col(m)
		if pos > width-1 {
			pos = width - 1
		}
		ruler[pos] = byte('0' + i%10)
	}
	fmt.Fprintf(&b, "  %-*s  %s\n", nameWidth, "time", ruler)
	for i, m := range marks {
		fmt.Fprintf(&b, "  t%d = %v\n", i, m)
	}
	return b.String()
}
