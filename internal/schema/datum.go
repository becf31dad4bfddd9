package schema

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"avdb/internal/media"
	"avdb/internal/temporal"
)

// Datum is one attribute value: a tagged union over the attribute kinds.
// Scalar data participate in query predicates; media and tcomp data are
// retrieved by reference and bound to activities.
//
// It is 48 bytes: the kind, one 8-byte word n that holds an int, a
// float's IEEE bits, a bool or a date (the Unix seconds of its UTC
// midnight), the string, and ref, which holds a media.Value or a
// *temporal.Composite.
type Datum struct {
	kind AttrKind
	n    uint64
	s    string
	ref  any
}

// errNaN is Compare's answer for a NaN operand: NaN is unordered, so
// no range predicate matches it.
var errNaN = errors.New("schema: NaN is not ordered")

// String returns a string datum.
func String(v string) Datum { return Datum{kind: KindString, s: v} }

// Int returns an integer datum.
func Int(v int64) Datum { return Datum{kind: KindInt, n: uint64(v)} }

// Float returns a float datum.
func Float(v float64) Datum { return Datum{kind: KindFloat, n: math.Float64bits(v)} }

// Bool returns a boolean datum.
func Bool(v bool) Datum {
	d := Datum{kind: KindBool}
	if v {
		d.n = 1
	}
	return d
}

// Date returns a date datum.  Date attributes hold calendar dates — the
// paper's "Date whenBroadcast" — so the value is truncated to its UTC
// day.
func Date(v time.Time) Datum {
	sec := v.Unix() // Go's time has no leap seconds: a UTC day is 86,400 s
	return Datum{kind: KindDate, n: uint64(sec - (sec%86400+86400)%86400)}
}

// Media returns a media-valued datum.
func Media(v media.Value) Datum { return Datum{kind: KindMedia, ref: v} }

// TComp returns a temporal-composite datum.
func TComp(c *temporal.Composite) Datum { return Datum{kind: KindTComp, ref: c} }

// Kind reports the datum's kind.
func (d Datum) Kind() AttrKind { return d.kind }

// Str returns the string value (zero unless KindString).
func (d Datum) Str() string { return d.s }

// IntVal returns the integer value (zero unless KindInt).
func (d Datum) IntVal() int64 {
	if d.kind != KindInt {
		return 0
	}
	return int64(d.n)
}

// FloatVal returns the float value (zero unless KindFloat).
func (d Datum) FloatVal() float64 {
	if d.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(d.n)
}

// BoolVal returns the boolean value (false unless KindBool).
func (d Datum) BoolVal() bool { return d.kind == KindBool && d.n != 0 }

// DateVal returns the date value (zero unless KindDate).
func (d Datum) DateVal() time.Time {
	if d.kind != KindDate {
		return time.Time{}
	}
	return time.Unix(int64(d.n), 0).UTC()
}

// MediaVal returns the media value (nil unless KindMedia).
func (d Datum) MediaVal() media.Value {
	if d.kind != KindMedia {
		return nil
	}
	v, _ := d.ref.(media.Value)
	return v
}

// TCompVal returns the temporal composite (nil unless KindTComp).
func (d Datum) TCompVal() *temporal.Composite {
	if d.kind != KindTComp {
		return nil
	}
	c, _ := d.ref.(*temporal.Composite)
	return c
}

// Equal reports whether two data are the same kind and value.  Media and
// tcomp data compare by identity.
func (d Datum) Equal(o Datum) bool {
	if d.kind != o.kind {
		return false
	}
	switch d.kind {
	case KindString:
		return d.s == o.s
	case KindInt, KindBool, KindDate:
		return d.n == o.n
	case KindFloat:
		return d.FloatVal() == o.FloatVal()
	case KindMedia, KindTComp:
		return d.ref == o.ref
	}
	return false
}

// Compare orders two data of the same comparable kind, returning -1, 0 or
// +1.  Media, tcomp and bool data are not ordered, and neither is a NaN
// float.
func (d Datum) Compare(o Datum) (int, error) {
	if d.kind != o.kind {
		return 0, fmt.Errorf("schema: comparing %v with %v", d.kind, o.kind)
	}
	switch d.kind {
	case KindString:
		return strings.Compare(d.s, o.s), nil
	case KindInt, KindDate:
		return cmp.Compare(int64(d.n), int64(o.n)), nil
	case KindFloat:
		a, b := d.FloatVal(), o.FloatVal()
		if a != a || b != b {
			return 0, errNaN
		}
		return cmp.Compare(a, b), nil
	}
	return 0, fmt.Errorf("schema: %v data are not ordered", d.kind)
}

// Contains reports whether a string datum contains the given substring,
// the data model's simple content predicate for keyword search.
func (d Datum) Contains(sub string) bool {
	return d.kind == KindString && strings.Contains(d.s, sub)
}

// Format renders the datum for display.
func (d Datum) Format() string {
	switch d.kind {
	case KindString:
		return fmt.Sprintf("%q", d.s)
	case KindInt:
		return fmt.Sprintf("%d", d.IntVal())
	case KindFloat:
		return fmt.Sprintf("%g", d.FloatVal())
	case KindBool:
		return fmt.Sprintf("%t", d.BoolVal())
	case KindDate:
		return d.DateVal().Format("2006-01-02")
	case KindMedia:
		m := d.MediaVal()
		if m == nil {
			return "<nil media>"
		}
		return fmt.Sprintf("<%s, %d elements>", m.Type().Name, m.NumElements())
	case KindTComp:
		tc := d.TCompVal()
		if tc == nil {
			return "<nil tcomp>"
		}
		return fmt.Sprintf("<tcomp %s, %d tracks>", tc.Name(), tc.NumTracks())
	}
	return "<invalid>"
}
