package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"avdb/internal/schema"
)

// The scalar datum codec as it stood before encodeDatum/decodeDatum wrote
// the bytes themselves: a gob envelope, one encoder or decoder (and one
// compiled type description) per datum.  It is kept verbatim (renamed
// with a ref prefix) as the oracle of the differential and fuzz tests in
// datum_test.go; nothing outside tests may call it.

// refWALDatum is the gob envelope for scalar datum persistence.
type refWALDatum struct {
	Kind schema.AttrKind
	Str  string
	Int  int64
	Flt  float64
	Bool bool
	Time time.Time
}

func refEncodeDatum(d schema.Datum) ([]byte, error) {
	wd := refWALDatum{Kind: d.Kind(), Str: d.Str(), Int: d.IntVal(), Flt: d.FloatVal(), Bool: d.BoolVal(), Time: d.DateVal()}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wd); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func refDecodeDatum(b []byte) (schema.Datum, error) {
	var wd refWALDatum
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&wd); err != nil {
		return schema.Datum{}, err
	}
	switch wd.Kind {
	case schema.KindString:
		return schema.String(wd.Str), nil
	case schema.KindInt:
		return schema.Int(wd.Int), nil
	case schema.KindFloat:
		return schema.Float(wd.Flt), nil
	case schema.KindBool:
		return schema.Bool(wd.Bool), nil
	case schema.KindDate:
		return schema.Date(wd.Time), nil
	}
	return schema.Datum{}, fmt.Errorf("core: cannot decode datum kind %v", wd.Kind)
}
