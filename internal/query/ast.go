package query

import (
	"fmt"
	"strings"
	"time"

	"avdb/internal/schema"
)

// Op is a predicate operator.
type Op int

// The predicate operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains
)

var opNames = [...]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpContains: "contains",
}

// String returns the operator's source form.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Expr is a boolean predicate expression over one object.
type Expr interface {
	fmt.Stringer
	// check validates the expression against a class definition and
	// resolves literal types.
	check(c *schema.Class) error
	// eval decides the predicate for one object.
	eval(o *schema.Object) bool
}

// And is conjunction.
type And struct{ L, R Expr }

// String implements Expr.
func (e *And) String() string { return fmt.Sprintf("(%v and %v)", e.L, e.R) }

func (e *And) check(c *schema.Class) error {
	if err := e.L.check(c); err != nil {
		return err
	}
	return e.R.check(c)
}

func (e *And) eval(o *schema.Object) bool { return e.L.eval(o) && e.R.eval(o) }

// Or is disjunction.
type Or struct{ L, R Expr }

// String implements Expr.
func (e *Or) String() string { return fmt.Sprintf("(%v or %v)", e.L, e.R) }

func (e *Or) check(c *schema.Class) error {
	if err := e.L.check(c); err != nil {
		return err
	}
	return e.R.check(c)
}

func (e *Or) eval(o *schema.Object) bool { return e.L.eval(o) || e.R.eval(o) }

// Not is negation.
type Not struct{ E Expr }

// String implements Expr.
func (e *Not) String() string { return fmt.Sprintf("(not %v)", e.E) }

func (e *Not) check(c *schema.Class) error { return e.E.check(c) }

func (e *Not) eval(o *schema.Object) bool { return !e.E.eval(o) }

// Literal is an untyped literal as written; check resolves it to a Datum
// against the attribute's declared kind.
type Literal struct {
	kind tokenKind // tokString, tokNumber, tokDate, or tokKeyword (true/false)
	text string
}

// Pred is one comparison: attribute op literal.
type Pred struct {
	Attr string
	Op   Op
	Lit  Literal

	datum schema.Datum // resolved by check
	slot  int          // the attribute's slot in the class layout, resolved by check
}

// String implements Expr.  A string literal is quoted back the way
// the lexer reads it, so the text parses to the same predicate.
func (p *Pred) String() string {
	lit := p.Lit.text
	if p.Lit.kind == tokString {
		lit = quote(lit)
	}
	return fmt.Sprintf("%s %v %s", p.Attr, p.Op, lit)
}

// quote renders s as a string literal.  The lexer's rule is that a
// backslash escapes the byte after it, so each '"' and '\' gets one.
func quote(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('"')
	return sb.String()
}

func (p *Pred) check(c *schema.Class) error {
	attr, ok := c.Attr(p.Attr)
	if !ok {
		return fmt.Errorf("%w: class %s has no attribute %q", ErrNoAttr, c.Name(), p.Attr)
	}
	d, err := resolveLiteral(p.Lit, attr.Kind)
	if err != nil {
		return err
	}
	p.datum = d
	p.slot, _ = c.Slot(p.Attr)
	switch p.Op {
	case OpEq, OpNe:
		if attr.Kind == schema.KindMedia || attr.Kind == schema.KindTComp {
			return fmt.Errorf("%w: attribute %q of kind %v cannot be compared", ErrType, p.Attr, attr.Kind)
		}
	case OpLt, OpLe, OpGt, OpGe:
		switch attr.Kind {
		case schema.KindString, schema.KindInt, schema.KindFloat, schema.KindDate:
		default:
			return fmt.Errorf("%w: attribute %q of kind %v is not ordered", ErrType, p.Attr, attr.Kind)
		}
	case OpContains:
		if attr.Kind != schema.KindString {
			return fmt.Errorf("%w: contains needs a String attribute, %q is %v", ErrType, p.Attr, attr.Kind)
		}
	}
	return nil
}

func resolveLiteral(lit Literal, kind schema.AttrKind) (schema.Datum, error) {
	switch kind {
	case schema.KindString:
		if lit.kind != tokString {
			return schema.Datum{}, fmt.Errorf("%w: %q is not a string literal", ErrType, lit.text)
		}
		return schema.String(lit.text), nil
	case schema.KindInt:
		if lit.kind != tokNumber {
			return schema.Datum{}, fmt.Errorf("%w: %q is not a number", ErrType, lit.text)
		}
		var v int64
		if _, err := fmt.Sscanf(lit.text, "%d", &v); err != nil {
			return schema.Datum{}, fmt.Errorf("%w: %q is not an integer", ErrType, lit.text)
		}
		return schema.Int(v), nil
	case schema.KindFloat:
		if lit.kind != tokNumber {
			return schema.Datum{}, fmt.Errorf("%w: %q is not a number", ErrType, lit.text)
		}
		var v float64
		if _, err := fmt.Sscanf(lit.text, "%g", &v); err != nil {
			return schema.Datum{}, fmt.Errorf("%w: %q is not a float", ErrType, lit.text)
		}
		return schema.Float(v), nil
	case schema.KindBool:
		switch lit.text {
		case "true":
			return schema.Bool(true), nil
		case "false":
			return schema.Bool(false), nil
		}
		return schema.Datum{}, fmt.Errorf("%w: %q is not a boolean", ErrType, lit.text)
	case schema.KindDate:
		text := lit.text
		if lit.kind != tokDate && lit.kind != tokString {
			return schema.Datum{}, fmt.Errorf("%w: %q is not a date", ErrType, lit.text)
		}
		t, err := time.Parse("2006-01-02", text)
		if err != nil {
			return schema.Datum{}, fmt.Errorf("%w: %q is not a date (want YYYY-MM-DD)", ErrType, text)
		}
		return schema.Date(t), nil
	}
	return schema.Datum{}, fmt.Errorf("%w: attribute kind %v has no literals", ErrType, kind)
}

// eval tests the attribute's slot in place; unset attributes satisfy
// nothing.
func (p *Pred) eval(o *schema.Object) bool { return o.Match(p.slot, p.test) }

func (p *Pred) test(d *schema.Datum) bool {
	switch p.Op {
	case OpEq:
		return d.Equal(p.datum)
	case OpNe:
		return !d.Equal(p.datum)
	case OpContains:
		return d.Contains(p.datum.Str())
	}
	c, err := d.Compare(p.datum)
	if err != nil {
		return false
	}
	switch p.Op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// Query is a parsed select statement.
type Query struct {
	ClassName string
	Where     Expr // nil selects the whole extent
}

// String renders the query back to source form.
func (q *Query) String() string {
	if q.Where == nil {
		return fmt.Sprintf("select %s", q.ClassName)
	}
	return fmt.Sprintf("select %s where %v", q.ClassName, q.Where)
}
