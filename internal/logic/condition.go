package logic

import (
	"fmt"
	"strconv"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// CmpOp is a comparison operator for conditions.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

func (op CmpOp) String() string {
	if int(op) < len(cmpNames) {
		return cmpNames[op]
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(op))
}

// Negate returns the complementary operator (= ↔ !=, < ↔ >=, ...).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return op
}

func (op CmpOp) applyInt(l, r int64) bool {
	switch op {
	case EQ:
		return l == r
	case NE:
		return l != r
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	case GE:
		return l >= r
	}
	return false
}

// Condition is a built-in predicate over bound variables, evaluated
// during grounding: Allen relations between intervals, (in)equality
// between object terms, and arithmetic comparisons.
type Condition interface {
	fmt.Stringer
	// CondVars appends the condition's variables to dst.
	CondVars(dst []string) []string
}

// AllenCond asserts that the Allen relation between two time terms falls
// within Rels. Single relations (before, overlaps, ...) use a singleton
// set; the paper's "disjoint" predicate uses temporal.DisjointSet and the
// loose "overlap"/"intersects" uses temporal.IntersectsSet.
type AllenCond struct {
	// Name is the surface name of the predicate as written by the user
	// (e.g. "disjoint"); it is retained for printing.
	Name string
	Rels temporal.RelationSet
	L, R TimeTerm
}

// CondVars implements Condition.
func (c AllenCond) CondVars(dst []string) []string { return c.R.Vars(c.L.Vars(dst)) }

func (c AllenCond) String() string {
	name := c.Name
	if name == "" {
		rels := c.Rels.Relations()
		if len(rels) == 1 {
			name = rels[0].String()
		} else {
			name = c.Rels.String()
		}
	}
	return fmt.Sprintf("%s(%s, %s)", name, c.L, c.R)
}

// CompareCond asserts (in)equality between two object terms, as in
// constraint c2's "y != z".
type CompareCond struct {
	Op   CmpOp // EQ or NE
	L, R Term
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CondVars implements Condition.
func (c CompareCond) CondVars(dst []string) []string {
	if c.L.IsVar() {
		dst = append(dst, c.L.Var)
	}
	if c.R.IsVar() {
		dst = append(dst, c.R.Var)
	}
	return dst
}

func (c CompareCond) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// NumExpr is an integer-valued expression over bound variables: interval
// endpoints, durations, numeric object values, constants, and sums and
// differences thereof.
type NumExpr interface {
	fmt.Stringer
	NumVars(dst []string) []string
}

// NumConst is an integer literal.
type NumConst int64

// NumVars implements NumExpr.
func (n NumConst) NumVars(dst []string) []string { return dst }

func (n NumConst) String() string { return strconv.FormatInt(int64(n), 10) }

// TimeAccessor selects a numeric feature of a time term.
type TimeAccessor uint8

// Time accessors: start, end and duration of an interval. A bare time
// variable in numeric context denotes its start (the convention used
// when writing the paper's f3 as "start(t) - start(t') < 20").
const (
	AccStart TimeAccessor = iota
	AccEnd
	AccDuration
)

// TimeNum extracts a numeric feature from a time term.
type TimeNum struct {
	Acc TimeAccessor
	T   TimeTerm
}

// NumVars implements NumExpr.
func (tn TimeNum) NumVars(dst []string) []string { return tn.T.Vars(dst) }

func (tn TimeNum) String() string {
	switch tn.Acc {
	case AccStart:
		return "start(" + tn.T.String() + ")"
	case AccEnd:
		return "end(" + tn.T.String() + ")"
	default:
		return "duration(" + tn.T.String() + ")"
	}
}

// ObjNum interprets an object term as an integer (e.g. a birthDate year
// literal).
type ObjNum struct{ T Term }

func termNumber(t rdf.Term) (int64, error) {
	v, err := strconv.ParseInt(t.Value, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("logic: term %s is not numeric", t)
	}
	return v, nil
}

// NumVars implements NumExpr.
func (on ObjNum) NumVars(dst []string) []string {
	if on.T.IsVar() {
		dst = append(dst, on.T.Var)
	}
	return dst
}

func (on ObjNum) String() string { return on.T.String() }

// NumBinOp is an arithmetic operator.
type NumBinOp uint8

// Arithmetic operators.
const (
	NumAdd NumBinOp = iota
	NumSub
)

// NumBin is a sum or difference of two numeric expressions.
type NumBin struct {
	Op   NumBinOp
	L, R NumExpr
}

// NumVars implements NumExpr.
func (nb NumBin) NumVars(dst []string) []string { return nb.R.NumVars(nb.L.NumVars(dst)) }

func (nb NumBin) String() string {
	op := " + "
	if nb.Op == NumSub {
		op = " - "
	}
	return nb.L.String() + op + nb.R.String()
}

// ArithCond compares two numeric expressions, as in the paper's
// "t' - t < 20" (age at career start below 20).
type ArithCond struct {
	Op   CmpOp
	L, R NumExpr
}

// CondVars implements Condition.
func (c ArithCond) CondVars(dst []string) []string { return c.R.NumVars(c.L.NumVars(dst)) }

func (c ArithCond) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}
