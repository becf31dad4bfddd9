package avtime

import "fmt"

// Interval is a half-open span [Start, Start+Dur) on the world timeline.
// Timeline diagrams (paper Fig. 1) are built from intervals: each track of
// a temporal composite occupies one interval, and correlations between
// tracks are statements about how their intervals relate.
type Interval struct {
	Start WorldTime
	Dur   WorldTime // non-negative
}

// IntervalOf returns the interval [start, end).  It panics if end < start;
// callers construct intervals from ordered timeline points.
func IntervalOf(start, end WorldTime) Interval {
	if end < start {
		panic(fmt.Sprintf("avtime: interval end %v before start %v", end, start))
	}
	return Interval{Start: start, Dur: end - start}
}

// End reports the exclusive end of the interval.
func (iv Interval) End() WorldTime { return iv.Start + iv.Dur }

// IsEmpty reports whether the interval has zero duration.
func (iv Interval) IsEmpty() bool { return iv.Dur == 0 }

// Union returns the smallest interval covering both (their convex hull).
func (iv Interval) Union(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return IntervalOf(min(iv.Start, o.Start), max(iv.End(), o.End()))
}

// String formats the interval as "[a, b)".
func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v)", iv.Start, iv.End())
}

// Relation is one of Allen's thirteen interval relations, used by the
// temporal-composition layer to describe and verify track correlations.
type Relation int

// Allen's interval relations, in mirror order: swapping the roles maps r
// to RelAfter-r+RelBefore (a Before b ⇔ b After a).
const (
	RelBefore Relation = iota
	RelMeets
	RelOverlaps
	RelStarts
	RelDuring
	RelFinishes
	RelEqual
	RelFinishedBy
	RelContains
	RelStartedBy
	RelOverlappedBy
	RelMetBy
	RelAfter
)

var relationNames = [...]string{
	RelBefore:       "before",
	RelMeets:        "meets",
	RelOverlaps:     "overlaps",
	RelStarts:       "starts",
	RelDuring:       "during",
	RelFinishes:     "finishes",
	RelEqual:        "equal",
	RelFinishedBy:   "finished-by",
	RelContains:     "contains",
	RelStartedBy:    "started-by",
	RelOverlappedBy: "overlapped-by",
	RelMetBy:        "met-by",
	RelAfter:        "after",
}

// String returns the conventional name of the relation.
func (r Relation) String() string {
	if r < 0 || int(r) >= len(relationNames) {
		return fmt.Sprintf("Relation(%d)", int(r))
	}
	return relationNames[r]
}

// Relate classifies how interval a stands to interval b using Allen's
// interval algebra.  Both intervals must be non-empty for the
// classification to be meaningful; empty intervals are treated as points.
func Relate(a, b Interval) Relation {
	switch {
	case a.End() < b.Start:
		return RelBefore
	case a.End() == b.Start:
		return RelMeets
	case a.Start == b.Start && a.End() == b.End():
		return RelEqual
	case a.Start == b.Start:
		if a.End() < b.End() {
			return RelStarts
		}
		return RelStartedBy
	case a.End() == b.End():
		if a.Start > b.Start {
			return RelFinishes
		}
		return RelFinishedBy
	case a.Start > b.Start && a.End() < b.End():
		return RelDuring
	case a.Start < b.Start && a.End() > b.End():
		return RelContains
	case a.Start < b.Start && a.End() > b.Start && a.End() < b.End():
		return RelOverlaps
	case a.Start > b.Start && a.Start < b.End() && a.End() > b.End():
		return RelOverlappedBy
	case a.Start == b.End():
		return RelMetBy
	default:
		return RelAfter
	}
}
