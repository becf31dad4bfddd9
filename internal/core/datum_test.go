package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"avdb/internal/media"
	"avdb/internal/schema"
)

// sameDatum reports whether two scalar data are the same value: by kind,
// by rendering, floats by their bits (NaN equals itself here, +0 does
// not equal -0) and dates by instant and zone offset.
func sameDatum(a, b schema.Datum) bool {
	if a.Kind() != b.Kind() || a.Format() != b.Format() || a.Str() != b.Str() ||
		a.IntVal() != b.IntVal() || a.BoolVal() != b.BoolVal() ||
		math.Float64bits(a.FloatVal()) != math.Float64bits(b.FloatVal()) {
		return false
	}
	_, aoff := a.DateVal().Zone()
	_, boff := b.DateVal().Zone()
	return a.DateVal().Equal(b.DateVal()) && aoff == boff
}

// datumCases is the differential test's input: every scalar kind at its
// edges.
func datumCases() map[string]schema.Datum {
	east := time.FixedZone("east", 5*3600+30*60)
	west := time.FixedZone("west", -(9*3600 + 45*60))
	return map[string]schema.Datum{
		"string":            schema.String("60 Minutes"),
		"string empty":      schema.String(""),
		"string 64 KiB":     schema.String(strings.Repeat("news\x00/", 64<<10/6)),
		"string slash nul":  schema.String("attr/7/title\x00/objmeta/"),
		"string tag bytes":  schema.String("sifbd"),
		"string not utf-8":  schema.String("\xff\xfe\x80"),
		"int zero":          schema.Int(0),
		"int negative":      schema.Int(-42),
		"int min":           schema.Int(math.MinInt64),
		"int max":           schema.Int(math.MaxInt64),
		"float":             schema.Float(29.97),
		"float +0":          schema.Float(0),
		"float -0":          schema.Float(math.Copysign(0, -1)),
		"float +Inf":        schema.Float(math.Inf(1)),
		"float -Inf":        schema.Float(math.Inf(-1)),
		"float NaN":         schema.Float(math.NaN()),
		"float NaN payload": schema.Float(math.Float64frombits(0x7ff8_0000_dead_beef)),
		"float denormal":    schema.Float(math.SmallestNonzeroFloat64),
		"bool true":         schema.Bool(true),
		"bool false":        schema.Bool(false),
		"date utc":          schema.Date(time.Date(1993, 4, 19, 0, 0, 0, 0, time.UTC)),
		"date +05:30":       schema.Date(time.Date(1993, 4, 19, 2, 0, 0, 0, east)),
		"date -09:45":       schema.Date(time.Date(1993, 4, 19, 20, 0, 0, 0, west)),
		"date year 1":       schema.Date(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)),
		"date year 9999":    schema.Date(time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC)),
		"date sub-second":   schema.Date(time.Date(2001, 9, 9, 1, 46, 40, 123_456_789, time.UTC)),
		"date zero":         schema.Date(time.Time{}),
	}
}

// TestDatumCodecMatchesGob holds the tag-byte codec to the gob envelope
// it replaced: a datum comes back from either as the same value, and as
// the value that went in.
func TestDatumCodecMatchesGob(t *testing.T) {
	kinds := make(map[schema.AttrKind]bool)
	for name, d := range datumCases() {
		kinds[d.Kind()] = true
		enc, err := encodeDatum(d)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := decodeDatum(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		refEnc, err := refEncodeDatum(d)
		if err != nil {
			t.Fatalf("%s: reference encode: %v", name, err)
		}
		want, err := refDecodeDatum(refEnc)
		if err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		if name == "float -0" {
			// The one value the envelope lost: gob leaves out a field that
			// compares equal to zero, so -0 came back as +0.
			if math.Signbit(want.FloatVal()) {
				t.Errorf("%s: gob kept the sign; drop this exception", name)
			}
		} else if !sameDatum(got, want) {
			t.Errorf("%s: codec gives %s, gob gave %s", name, got.Format(), want.Format())
		}
		if !sameDatum(got, d) {
			t.Errorf("%s: codec gives %s, encoded %s", name, got.Format(), d.Format())
		}
	}
	for _, k := range []schema.AttrKind{schema.KindString, schema.KindInt, schema.KindFloat, schema.KindBool, schema.KindDate} {
		if !kinds[k] {
			t.Errorf("no case of kind %v", k)
		}
	}
}

// TestDatumBytesUnchanged pins encodeDatum's output for every case of
// datumCases by digest: the bytes were the same when schema.Datum was
// 96 bytes with one field per kind, and the log must keep them.
func TestDatumBytesUnchanged(t *testing.T) {
	const want = "e74eebb11da9b4a5cd3e06270cd7d839e05aac7b46b91a2d3f11e805afd57678"
	cases := datumCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		enc, err := encodeDatum(cases[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(enc))
		h.Write(enc)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("encodeDatum digest = %s, want %s", got, want)
	}
}

// TestDatumDateDecodesZoneOffset checks what no schema.Date can show,
// since it truncates to the UTC day: the date's wire form carries a zone
// offset, as the time.Time inside the gob envelope did, and a date
// written with one decodes to the UTC day of its instant.
func TestDatumDateDecodesZoneOffset(t *testing.T) {
	at := time.Date(1993, 4, 19, 22, 30, 0, 5, time.FixedZone("", -(3*3600+30*60))) // the 20th in UTC
	wire, err := at.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeDatum(append([]byte{tagDate}, wire...))
	if err != nil {
		t.Fatal(err)
	}
	if d.Format() != "1993-04-20" {
		t.Errorf("decoded %s, want 1993-04-20", d.Format())
	}
}

// TestDatumCodecRejects: what the codec cannot represent, or could not
// have written, is an error.
func TestDatumCodecRejects(t *testing.T) {
	if _, err := encodeDatum(schema.Media(media.NewVideoValue(media.TypeRawVideo30, 2, 2, 8))); err == nil {
		t.Error("a media datum encoded")
	}
	date, err := encodeDatum(schema.Date(time.Date(1993, 4, 19, 0, 0, 0, 0, time.UTC)))
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"empty":           nil,
		"unknown tag":     {'x', 1, 2, 3},
		"gob envelope":    {0x3f, 0xff, 0x81, 0x03, 0x01, 0x01},
		"truncated int":   {tagInt, 0, 0, 0, 1},
		"overlong int":    {tagInt, 0, 0, 0, 0, 0, 0, 0, 1, 0},
		"truncated float": {tagFloat},
		"bool no value":   {tagBool},
		"bool 2":          {tagBool, 2},
		"bool two bytes":  {tagBool, 1, 1},
		"date no value":   {tagDate},
		"truncated date":  date[:len(date)-3],
		"date version 9":  append([]byte{tagDate, 9}, date[2:]...),
	} {
		if d, err := decodeDatum(b); err == nil {
			t.Errorf("%s: % x decoded to %s", name, b, d.Format())
		}
	}
}

// FuzzDatumDecode feeds arbitrary bytes to decodeDatum: it may refuse
// them but never panic, and whatever it accepts is a fixed point — it
// encodes to bytes that decode to the same datum, and those bytes encode
// to themselves.
func FuzzDatumDecode(f *testing.F) {
	for _, d := range datumCases() {
		enc, err := encodeDatum(d)
		if err != nil {
			f.Fatal(err)
		}
		if len(enc) <= 1<<10 { // a 64 KiB seed stalls the mutator on minimizing it
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := decodeDatum(b)
		if err != nil {
			return
		}
		enc, err := encodeDatum(d)
		if err != nil {
			t.Fatalf("% x decodes to %s, which does not encode: %v", b, d.Format(), err)
		}
		again, err := decodeDatum(enc)
		if err != nil {
			t.Fatalf("% x re-encodes to % x, which does not decode: %v", b, enc, err)
		}
		if !sameDatum(d, again) {
			t.Fatalf("% x decodes to %s, re-encodes to % x, decodes to %s", b, d.Format(), enc, again.Format())
		}
		if enc2, err := encodeDatum(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("% x: canonical form % x encodes to % x (%v)", b, enc, enc2, err)
		}
	})
}
