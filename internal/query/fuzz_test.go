package query

import (
	"errors"
	"testing"
)

// parseSeeds are the parser tests' queries, well-formed and not.
var parseSeeds = []string{
	`select SimpleNewscast where (title = "60 Minutes" and whenBroadcast = 1993-04-19)`,
	`select SimpleNewscast where (title = "60 Minutes" and whenBroadcast = 1993-04-19) or runtimeMin > 30`,
	`select C where a = 1 or b = 2 and not c = 3`,
	`select SimpleNewscast where title = "60 Minutes" and runtimeMin > 0`,
	`select SimpleNewscast where whenBroadcast < 1993-01-08`,
	`select SimpleNewscast where runtimeMin >= 30 and runtimeMin < 32`,
	`select SimpleNewscast where hi = 3 and archived = true and lo != 2.5`,
	`select Newscast where keywords contains "sports"`,
	`select SimpleNewscast where whenBroadcast = "not-a-date"`,
	`select SimpleNewscast where archived <= false`,
	`select x where x = "say \"hi\" \\ back"`,
	`select SimpleNewscast`,
	"",
	"select",
	"select 42",
	"where x = 1",
	"select C where",
	"select C where x =",
	"select C where (x = 1",
	"select C where x ~ 1",
	"select C where x = 1 extra",
	"select C where not",
	"select C where x contains",
	"select C where x = and",
	`select SimpleNewscast where title = "unterminated`,
	`select SimpleNewscast where ! title`,
	`x = 1993-04`,
	`x = @`,
}

// FuzzParse holds the parser to three rules: no input panics, every
// failure wraps ErrSyntax, and an accepted query prints (Query.String)
// as source that parses back to a query printing the same.
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			if !errors.Is(err, ErrSyntax) {
				t.Fatalf("Parse(%q) = %v, which does not wrap ErrSyntax", src, err)
			}
			return
		}
		text := q.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, text, err)
		}
		if again := q2.String(); again != text {
			t.Fatalf("Parse(%q) printed %q, which parses back to %q", src, text, again)
		}
	})
}

// TestQueryStringParses pins Query.String's string literals: quoted, and
// escaped by the lexer's rule, so the printed query parses back to the
// same literal text.
func TestQueryStringParses(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`select A where title = "60 Minutes"`, `select A where title = "60 Minutes"`},
		{`select A where title = "say \"hi\"" and x != "a\\b"`, `select A where (title = "say \"hi\"" and x != "a\\b")`},
		{`select A where d < 1993-04-19 or n >= 3`, `select A where (d < 1993-04-19 or n >= 3)`},
	} {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.want)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("printed %q does not parse: %v", q.String(), err)
		}
		if p, p2 := firstPred(q.Where), firstPred(q2.Where); p.Lit != p2.Lit {
			t.Errorf("%q: literal %+v came back as %+v", c.src, p.Lit, p2.Lit)
		}
	}
}

// firstPred returns the leftmost predicate of e.
func firstPred(e Expr) *Pred {
	for {
		switch x := e.(type) {
		case *And:
			e = x.L
		case *Or:
			e = x.L
		case *Not:
			e = x.E
		case *Pred:
			return x
		}
	}
}
