package query

import (
	"errors"
	"testing"
)

// TestSentinelClassification checks that every failure mode wraps its
// documented sentinel, so callers can branch with errors.Is rather than
// parsing messages.
func TestSentinelClassification(t *testing.T) {
	_, _, eng := newsDB(t, 10)

	syntax := []string{
		"",
		"select",
		"select SimpleNewscast where",
		`select SimpleNewscast where title ~ "x"`,
		`select SimpleNewscast where title = "unterminated`,
		`select SimpleNewscast where (title = "a"`,
		`select SimpleNewscast where title = "a" extra`,
		`select SimpleNewscast where ! title`,
	}
	for _, src := range syntax {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) = %v, want ErrSyntax", src, err)
		}
	}

	semantic := []struct {
		src  string
		want error
	}{
		{`select Nonesuch where title = "a"`, ErrNoClass},
		{`select SimpleNewscast where nonesuch = "a"`, ErrNoAttr},
		{`select SimpleNewscast where runtimeMin = "sixty"`, ErrType},
		{`select SimpleNewscast where runtimeMin contains "6"`, ErrType},
		{`select SimpleNewscast where archived < true`, ErrType},
		{`select SimpleNewscast where whenBroadcast = "not-a-date"`, ErrType},
	}
	for _, tc := range semantic {
		q, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q) failed at the syntax layer: %v", tc.src, err)
			continue
		}
		if _, err := eng.Prepare(q); !errors.Is(err, tc.want) {
			t.Errorf("Prepare(%q) = %v, want %v", tc.src, err, tc.want)
		}
	}

	// Index management failures.
	if _, err := eng.CreateIndex("Nonesuch", "title", HashIndex); !errors.Is(err, ErrNoClass) {
		t.Errorf("CreateIndex on missing class = %v, want ErrNoClass", err)
	}
	if _, err := eng.CreateIndex("SimpleNewscast", "nonesuch", HashIndex); !errors.Is(err, ErrNoAttr) {
		t.Errorf("CreateIndex on missing attr = %v, want ErrNoAttr", err)
	}
	if _, err := eng.CreateIndex("SimpleNewscast", "archived", BTreeIndex); !errors.Is(err, ErrType) {
		t.Errorf("btree over bool = %v, want ErrType", err)
	}
	if _, err := eng.CreateIndex("SimpleNewscast", "title", HashIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateIndex("SimpleNewscast", "title", HashIndex); !errors.Is(err, ErrIndex) {
		t.Errorf("duplicate index = %v, want ErrIndex", err)
	}

	// A well-formed, well-typed query still works after all that.
	if _, err := run(eng, `select SimpleNewscast where title = "60 Minutes"`); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}
