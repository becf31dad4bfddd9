package core

import (
	"fmt"
	"sort"

	"avdb/internal/media"
	"avdb/internal/schema"
)

// SimilarityMatch is one result of a query-by-pictorial-example.
type SimilarityMatch struct {
	OID      schema.OID
	Distance float64 // L1 signature distance, ascending is more similar
}

// FindSimilar performs restricted content-based retrieval in the style of
// REDI's Query-by-Pictorial-Example (§2): it ranks the class's instances
// by the similarity of their video or image attribute to the example
// frame and returns the closest limit matches.  Objects without the
// attribute, or whose attribute is not raster-addressable (encoded
// values), are skipped — content retrieval operates on the database's
// extracted features, not on encoded payloads.
func (db *Database) FindSimilar(className, attr string, example *media.Frame, limit int) ([]SimilarityMatch, error) {
	if example == nil {
		return nil, fmt.Errorf("core: FindSimilar needs an example frame")
	}
	if limit <= 0 {
		return nil, fmt.Errorf("core: FindSimilar needs a positive limit")
	}
	c, ok := db.schema.Class(className)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoClass, className)
	}
	def, ok := c.Attr(attr)
	if !ok {
		return nil, fmt.Errorf("core: class %s has no attribute %q", className, attr)
	}
	if def.Kind != schema.KindMedia || def.MediaKind != media.KindVideo {
		return nil, fmt.Errorf("core: attribute %q is not a video attribute", attr)
	}
	want := media.SignatureOf(example)

	// Collect the extent under the store's lock; compute signatures
	// outside it.
	var objs []*schema.Object
	db.objects.Scan(c, func(o *schema.Object) { objs = append(objs, o) })
	var out []SimilarityMatch
	for _, o := range objs {
		d, ok := o.Get(attr)
		if !ok {
			continue
		}
		v, ok := d.MediaVal().(*media.VideoValue)
		if !ok {
			continue
		}
		sig, err := media.VideoSignature(v, 8)
		if err != nil {
			continue
		}
		out = append(out, SimilarityMatch{OID: o.OID(), Distance: want.Distance(sig)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].OID < out[j].OID
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}
