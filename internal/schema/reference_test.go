package schema

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"

	"avdb/internal/media"
	"avdb/internal/temporal"
)

// The 96-byte Datum as it stood before it packed every scalar into one
// 8-byte word, one field per kind.  It is kept verbatim (renamed with a
// ref prefix) as the oracle of FuzzDatumMatchesReference; nothing
// outside tests may call it.

// refDatum is one attribute value: a tagged union over the attribute kinds.
// Scalar data participate in query predicates; media and tcomp data are
// retrieved by reference and bound to activities.
type refDatum struct {
	kind AttrKind
	s    string
	i    int64
	f    float64
	b    bool
	t    time.Time
	m    media.Value
	tc   *temporal.Composite
}

// refString returns a string datum.
func refString(v string) refDatum { return refDatum{kind: KindString, s: v} }

// refInt returns an integer datum.
func refInt(v int64) refDatum { return refDatum{kind: KindInt, i: v} }

// refFloat returns a float datum.
func refFloat(v float64) refDatum { return refDatum{kind: KindFloat, f: v} }

// refBool returns a boolean datum.
func refBool(v bool) refDatum { return refDatum{kind: KindBool, b: v} }

// refDate returns a date datum.  Date attributes hold calendar dates — the
// paper's "Date whenBroadcast" — so the value is truncated to its UTC
// day.
func refDate(v time.Time) refDatum {
	y, m, d := v.UTC().Date()
	return refDatum{kind: KindDate, t: time.Date(y, m, d, 0, 0, 0, 0, time.UTC)}
}

// refMedia returns a media-valued datum.
func refMedia(v media.Value) refDatum { return refDatum{kind: KindMedia, m: v} }

// refTComp returns a temporal-composite datum.
func refTComp(c *temporal.Composite) refDatum { return refDatum{kind: KindTComp, tc: c} }

// Kind reports the datum's kind.
func (d refDatum) Kind() AttrKind { return d.kind }

// Str returns the string value (zero unless KindString).
func (d refDatum) Str() string { return d.s }

// IntVal returns the integer value (zero unless KindInt).
func (d refDatum) IntVal() int64 { return d.i }

// FloatVal returns the float value (zero unless KindFloat).
func (d refDatum) FloatVal() float64 { return d.f }

// BoolVal returns the boolean value (false unless KindBool).
func (d refDatum) BoolVal() bool { return d.b }

// DateVal returns the date value (zero unless KindDate).
func (d refDatum) DateVal() time.Time { return d.t }

// MediaVal returns the media value (nil unless KindMedia).
func (d refDatum) MediaVal() media.Value { return d.m }

// TCompVal returns the temporal composite (nil unless KindTComp).
func (d refDatum) TCompVal() *temporal.Composite { return d.tc }

// Equal reports whether two data are the same kind and value.  Media and
// tcomp data compare by identity.
func (d refDatum) Equal(o refDatum) bool {
	if d.kind != o.kind {
		return false
	}
	switch d.kind {
	case KindString:
		return d.s == o.s
	case KindInt:
		return d.i == o.i
	case KindFloat:
		return d.f == o.f
	case KindBool:
		return d.b == o.b
	case KindDate:
		return d.t.Equal(o.t)
	case KindMedia:
		return d.m == o.m
	case KindTComp:
		return d.tc == o.tc
	}
	return false
}

// Compare orders two data of the same comparable kind, returning -1, 0 or
// +1.  Media, tcomp and bool data are not ordered.
func (d refDatum) Compare(o refDatum) (int, error) {
	if d.kind != o.kind {
		return 0, fmt.Errorf("schema: comparing %v with %v", d.kind, o.kind)
	}
	switch d.kind {
	case KindString:
		return strings.Compare(d.s, o.s), nil
	case KindInt:
		switch {
		case d.i < o.i:
			return -1, nil
		case d.i > o.i:
			return 1, nil
		}
		return 0, nil
	case KindFloat:
		switch {
		case d.f < o.f:
			return -1, nil
		case d.f > o.f:
			return 1, nil
		}
		return 0, nil
	case KindDate:
		switch {
		case d.t.Before(o.t):
			return -1, nil
		case d.t.After(o.t):
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("schema: %v data are not ordered", d.kind)
}

// Contains reports whether a string datum contains the given substring,
// the data model's simple content predicate for keyword search.
func (d refDatum) Contains(sub string) bool {
	return d.kind == KindString && strings.Contains(d.s, sub)
}

// Format renders the datum for display.
func (d refDatum) Format() string {
	switch d.kind {
	case KindString:
		return fmt.Sprintf("%q", d.s)
	case KindInt:
		return fmt.Sprintf("%d", d.i)
	case KindFloat:
		return fmt.Sprintf("%g", d.f)
	case KindBool:
		return fmt.Sprintf("%t", d.b)
	case KindDate:
		return d.t.Format("2006-01-02")
	case KindMedia:
		if d.m == nil {
			return "<nil media>"
		}
		return fmt.Sprintf("<%s, %d elements>", d.m.Type().Name, d.m.NumElements())
	case KindTComp:
		if d.tc == nil {
			return "<nil tcomp>"
		}
		return fmt.Sprintf("<tcomp %s, %d tracks>", d.tc.Name(), d.tc.NumTracks())
	}
	return "<invalid>"
}

// TestCatalogObjectSizes guards the compact layout: a 48-byte Datum (so
// a slot is 56 bytes) and a 48-byte Object with no lock of its own.
func TestCatalogObjectSizes(t *testing.T) {
	if got := unsafe.Sizeof(Datum{}); got != 48 {
		t.Errorf("Datum is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(field{}); got != 56 {
		t.Errorf("a slot is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(Object{}); got != 48 {
		t.Errorf("Object is %d bytes, want 48", got)
	}
}

// refPair builds the same value as a Datum and as a refDatum from a
// kind, an 8-byte word and a string.  A date reads the word as Unix
// seconds and places the instant in a zone the string picks, so the UTC
// day truncation is exercised from both sides of midnight.
func refPair(kind uint8, w uint64, s string) (Datum, refDatum) {
	video := media.NewVideoValue(media.TypeRawVideo30, 2, 2, 8)
	tc := temporal.NewComposite(s)
	switch AttrKind(kind % 7) {
	case KindString:
		return String(s), refString(s)
	case KindInt:
		return Int(int64(w)), refInt(int64(w))
	case KindFloat:
		f := math.Float64frombits(w)
		return Float(f), refFloat(f)
	case KindBool:
		return Bool(w&1 == 1), refBool(w&1 == 1)
	case KindDate:
		zone := time.FixedZone("", (len(s)%29-14)*3600)
		v := time.Unix(int64(w)>>8, int64(w&0xff)*3_900_000).In(zone)
		return Date(v), refDate(v)
	case KindMedia:
		if w&1 == 0 {
			return Media(nil), refMedia(nil)
		}
		return Media(video), refMedia(video)
	}
	if w&1 == 0 {
		return TComp(nil), refTComp(nil)
	}
	return TComp(tc), refTComp(tc)
}

// FuzzDatumMatchesReference holds the 48-byte Datum to the 96-byte one
// it replaced: every accessor, Equal, Compare, Contains and Format.  A
// date must be the same time.Time down to its representation and
// MarshalBinary bytes; since core's encodeDatum reads nothing but the
// kind and these accessors, its bytes agree too.  The one pinned
// exception is NaN, which the old Compare called equal to everything
// and the new one reports as unordered.
func FuzzDatumMatchesReference(f *testing.F) {
	day := uint64(728_265_600) << 8 // 1993-01-29 00:00 UTC, in refPair's date encoding
	for _, seed := range []struct {
		kind uint8
		a, b uint64
		s, t string
	}{
		{uint8(KindString), 0, 0, "60 Minutes", "Minutes"},
		{uint8(KindString), 0, 0, "", ""},
		{uint8(KindInt), 7, 1 << 63, "", ""},
		{uint8(KindFloat), math.Float64bits(1.5), math.Float64bits(math.NaN()), "", ""},
		{uint8(KindFloat), math.Float64bits(math.Copysign(0, -1)), 0, "", ""},
		{uint8(KindFloat), math.Float64bits(math.Inf(-1)), math.Float64bits(math.Inf(1)), "", ""},
		{uint8(KindBool), 1, 0, "", ""},
		{uint8(KindDate), day, day + 86_399<<8, "UTC-13", "x"},
		{uint8(KindDate), day - 1, day, "", "a longer string that wraps the zone"},
		{uint8(KindDate), 1 << 63, 1<<63 - 1, "", ""},
		{uint8(KindMedia), 1, 0, "", ""},
		{uint8(KindTComp), 1, 1, "clip", ""},
	} {
		f.Add(seed.kind, seed.a, seed.b, seed.s, seed.t)
	}
	f.Fuzz(func(t *testing.T, kind uint8, a, b uint64, s, sub string) {
		d, r := refPair(kind, a, s)
		o, ro := refPair(kind, b, sub)
		x, rx := refPair(kind+1, a, s) // another kind
		matchAccessors(t, d, r)
		matchAccessors(t, o, ro)
		for _, p := range []struct {
			name   string
			d, o   Datum
			r, ro  refDatum
			pinNaN bool
		}{
			{"d,o", d, o, r, ro, true},
			{"o,d", o, d, ro, r, true},
			{"d,d", d, d, r, r, true},
			{"d,x", d, x, r, rx, false},
		} {
			if got, want := p.d.Equal(p.o), p.r.Equal(p.ro); got != want {
				t.Fatalf("%s: Equal = %v, reference %v", p.name, got, want)
			}
			c, err := p.d.Compare(p.o)
			rc, rerr := p.r.Compare(p.ro)
			if p.pinNaN && p.d.Kind() == KindFloat && (math.IsNaN(p.r.f) || math.IsNaN(p.ro.f)) {
				if err == nil {
					t.Fatalf("%s: Compare(%v, %v) ordered a NaN as %d", p.name, p.r.f, p.ro.f, c)
				}
				continue
			}
			if c != rc || fmt.Sprint(err) != fmt.Sprint(rerr) {
				t.Fatalf("%s: Compare = %d, %v; reference %d, %v", p.name, c, err, rc, rerr)
			}
		}
		if got, want := d.Contains(sub), r.Contains(sub); got != want {
			t.Fatalf("Contains(%q) = %v, reference %v", sub, got, want)
		}
	})
}

// matchAccessors fails unless d reads exactly as the reference r does.
func matchAccessors(t *testing.T, d Datum, r refDatum) {
	t.Helper()
	if d.Kind() != r.Kind() || d.Str() != r.Str() || d.IntVal() != r.IntVal() ||
		math.Float64bits(d.FloatVal()) != math.Float64bits(r.FloatVal()) || d.BoolVal() != r.BoolVal() ||
		d.MediaVal() != r.MediaVal() || d.TCompVal() != r.TCompVal() {
		t.Fatalf("accessors of %s differ from the reference's %s", d.Format(), r.Format())
	}
	if got, want := d.DateVal(), r.DateVal(); got != want {
		t.Fatalf("DateVal = %#v, reference %#v", got, want)
	}
	got, gerr := d.DateVal().MarshalBinary()
	want, werr := r.DateVal().MarshalBinary()
	if string(got) != string(want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("DateVal().MarshalBinary() = %x, %v; reference %x, %v", got, gerr, want, werr)
	}
	if got, want := d.Format(), r.Format(); got != want {
		t.Fatalf("Format = %q, reference %q", got, want)
	}
}
