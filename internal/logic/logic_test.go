package logic

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// testFrame is a compiled-evaluation fixture: a slot map declaring
// every variable the tests mention, a frame binding some of them, and a
// code-indexed term dictionary for the encoder and decoder. Variables
// declared but never bound (u) exercise the unbound-term error paths.
type testFrame struct {
	sm    *SlotMap
	fr    *Frame
	terms []rdf.Term // code-indexed; entry 0 unused
}

func newTestFrame(objs map[string]rdf.Term, times map[string]temporal.Interval) *testFrame {
	sm := &SlotMap{objs: map[string]int{}, times: map[string]int{}}
	for _, v := range sortedKeys(objs, "u") {
		sm.objs[v] = len(sm.objs)
	}
	for _, v := range sortedKeys(times, "u") {
		sm.times[v] = len(sm.times)
	}
	tf := &testFrame{sm: sm, fr: NewFrame(sm), terms: []rdf.Term{{}}}
	for v, term := range objs {
		code, ok := tf.enc(term)
		if !ok {
			tf.terms = append(tf.terms, term)
			code = uint32(len(tf.terms) - 1)
		}
		tf.fr.Objs[sm.objs[v]] = code
	}
	for v, iv := range times {
		tf.fr.Times[sm.times[v]] = iv
		tf.fr.TimeSet[sm.times[v]] = true
	}
	return tf
}

func sortedKeys[V any](m map[string]V, extra string) []string {
	keys := []string{extra}
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (tf *testFrame) dec(code uint32) rdf.Term { return tf.terms[code] }

func (tf *testFrame) enc(term rdf.Term) (uint32, bool) {
	for code, t := range tf.terms {
		if code > 0 && t == term {
			return uint32(code), true
		}
	}
	return 0, false
}

// eval compiles c against the fixture and evaluates it; a compile-time
// error is reported like an evaluation error.
func (tf *testFrame) eval(c Condition) (bool, error) {
	cc, err := CompileCondition(c, tf.sm, tf.dec, tf.enc)
	if err != nil {
		return false, err
	}
	return cc(tf.fr)
}

// evalNum compiles a numeric expression against the fixture and
// evaluates it.
func (tf *testFrame) evalNum(e NumExpr) (int64, error) {
	prog, err := compileNum(e, tf.sm, tf.dec)
	if err != nil {
		return 0, err
	}
	return prog(tf.fr)
}

// resolveAtom instantiates a quad atom under the frame the way the
// grounder resolves rule heads: object positions through their slots,
// the time position through CompileTime. ok is false when any variable
// is undeclared or unbound, or the time expression is empty.
func (tf *testFrame) resolveAtom(a QuadAtom) (rdf.FactKey, bool) {
	term := func(t Term) (rdf.Term, bool) {
		if !t.IsVar() {
			return t.Const, true
		}
		slot, ok := tf.sm.ObjSlot(t.Var)
		if !ok || tf.fr.Objs[slot] == 0 {
			return rdf.Term{}, false
		}
		return tf.dec(tf.fr.Objs[slot]), true
	}
	s, ok := term(a.S)
	if !ok {
		return rdf.FactKey{}, false
	}
	p, ok := term(a.P)
	if !ok {
		return rdf.FactKey{}, false
	}
	o, ok := term(a.O)
	if !ok {
		return rdf.FactKey{}, false
	}
	iv, ok := CompileTime(a.T, tf.sm)(tf.fr)
	if !ok {
		return rdf.FactKey{}, false
	}
	return rdf.FactKey{S: s, P: p, O: o, Interval: iv}, true
}

func bindCR() *testFrame {
	return newTestFrame(map[string]rdf.Term{
		"x": rdf.NewIRI("CR"),
		"y": rdf.NewIRI("Chelsea"),
		"z": rdf.NewIRI("Napoli"),
	}, map[string]temporal.Interval{
		"t":  temporal.MustNew(2000, 2004),
		"t'": temporal.MustNew(2001, 2003),
	})
}

func TestTermString(t *testing.T) {
	if V("x").String() != "x" {
		t.Error("var term string")
	}
	if CIRI("coach").String() != "coach" {
		t.Error("const term string")
	}
	if !V("x").IsVar() || CIRI("coach").IsVar() {
		t.Error("IsVar wrong")
	}
}

func TestTimeTermResolve(t *testing.T) {
	b := bindCR()
	tests := []struct {
		tt     TimeTerm
		want   temporal.Interval
		wantOK bool
	}{
		{TV("t"), temporal.MustNew(2000, 2004), true},
		{TV("missing"), temporal.Interval{}, false},
		{TC(temporal.MustNew(1, 2)), temporal.MustNew(1, 2), true},
		{TIntersect(TV("t"), TV("t'")), temporal.MustNew(2001, 2003), true},
		{TIntersect(TC(temporal.MustNew(1, 2)), TC(temporal.MustNew(5, 6))), temporal.Interval{}, false},
		{TSpan(TV("t"), TC(temporal.MustNew(2010, 2012))), temporal.MustNew(2000, 2012), true},
		{TIntersect(TV("missing"), TV("t")), temporal.Interval{}, false},
		{TSpan(TV("t"), TV("missing")), temporal.Interval{}, false},
	}
	for i, tc := range tests {
		got, ok := CompileTime(tc.tt, b.sm)(b.fr)
		if ok != tc.wantOK || (ok && got != tc.want) {
			t.Errorf("case %d (%s): got %v,%v want %v,%v", i, tc.tt, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestTimeTermVarsAndString(t *testing.T) {
	tt := TIntersect(TV("t"), TSpan(TV("t'"), TC(temporal.MustNew(1, 2))))
	vars := tt.Vars(nil)
	if len(vars) != 2 || vars[0] != "t" || vars[1] != "t'" {
		t.Errorf("Vars = %v", vars)
	}
	if s := tt.String(); !strings.Contains(s, "intersect") || !strings.Contains(s, "span") {
		t.Errorf("String = %q", s)
	}
}

func TestQuadAtomResolve(t *testing.T) {
	a := QuadAtom{S: V("x"), P: CIRI("coach"), O: V("y"), T: TV("t")}
	b := bindCR()
	key, ok := b.resolveAtom(a)
	if !ok {
		t.Fatal("Resolve failed")
	}
	want := rdf.FactKey{S: rdf.NewIRI("CR"), P: rdf.NewIRI("coach"), O: rdf.NewIRI("Chelsea"),
		Interval: temporal.MustNew(2000, 2004)}
	if key != want {
		t.Errorf("key = %v, want %v", key, want)
	}
	if _, ok := b.resolveAtom(QuadAtom{S: V("nope"), P: CIRI("p"), O: V("y"), T: TV("t")}); ok {
		t.Error("unbound subject should fail")
	}
	if _, ok := b.resolveAtom(QuadAtom{S: V("x"), P: CIRI("p"), O: V("nope"), T: TV("t")}); ok {
		t.Error("unbound object should fail")
	}
	if _, ok := b.resolveAtom(QuadAtom{S: V("x"), P: V("nope"), O: V("y"), T: TV("t")}); ok {
		t.Error("unbound predicate should fail")
	}
	if _, ok := b.resolveAtom(QuadAtom{S: V("x"), P: CIRI("p"), O: V("y"), T: TV("nope")}); ok {
		t.Error("unbound time should fail")
	}
}

func TestQuadAtomString(t *testing.T) {
	a := QuadAtom{S: V("x"), P: CIRI("playsFor"), O: V("y"), T: TV("t")}
	if got := a.String(); got != "quad(x, playsFor, y, t)" {
		t.Errorf("String = %q", got)
	}
}

func TestAllenCondEval(t *testing.T) {
	b := bindCR() // t=[2000,2004], t'=[2001,2003]: t contains t'
	tests := []struct {
		c    AllenCond
		want bool
	}{
		{AllenCond{Rels: temporal.NewRelationSet(temporal.Contains), L: TV("t"), R: TV("t'")}, true},
		{AllenCond{Rels: temporal.NewRelationSet(temporal.Before), L: TV("t"), R: TV("t'")}, false},
		{AllenCond{Rels: temporal.IntersectsSet, L: TV("t"), R: TV("t'")}, true},
		{AllenCond{Rels: temporal.DisjointSet, L: TV("t"), R: TV("t'")}, false},
	}
	for i, tc := range tests {
		got, err := b.eval(tc.c)
		if err != nil || got != tc.want {
			t.Errorf("case %d: got %v,%v want %v", i, got, err, tc.want)
		}
	}
	if _, err := b.eval(AllenCond{Rels: temporal.DisjointSet, L: TV("u"), R: TV("t")}); err == nil {
		t.Error("unbound left time should error")
	}
	if _, err := b.eval(AllenCond{Rels: temporal.DisjointSet, L: TV("t"), R: TV("u")}); err == nil {
		t.Error("unbound right time should error")
	}
}

func TestAllenCondString(t *testing.T) {
	c := AllenCond{Name: "disjoint", Rels: temporal.DisjointSet, L: TV("t"), R: TV("t'")}
	if got := c.String(); got != "disjoint(t, t')" {
		t.Errorf("String = %q", got)
	}
	c2 := AllenCond{Rels: temporal.NewRelationSet(temporal.Before), L: TV("t"), R: TV("t'")}
	if got := c2.String(); got != "before(t, t')" {
		t.Errorf("String = %q", got)
	}
}

func TestCompareCondEval(t *testing.T) {
	b := bindCR()
	eq := CompareCond{Op: EQ, L: V("y"), R: V("z")}
	if got, err := b.eval(eq); err != nil || got {
		t.Errorf("Chelsea = Napoli evaluated %v,%v", got, err)
	}
	ne := CompareCond{Op: NE, L: V("y"), R: V("z")}
	if got, err := b.eval(ne); err != nil || !got {
		t.Errorf("Chelsea != Napoli evaluated %v,%v", got, err)
	}
	same := CompareCond{Op: EQ, L: V("y"), R: CIRI("Chelsea")}
	if got, err := b.eval(same); err != nil || !got {
		t.Errorf("y = Chelsea evaluated %v,%v", got, err)
	}
	if _, err := b.eval(CompareCond{Op: EQ, L: V("u"), R: V("y")}); err == nil {
		t.Error("unbound compare should error")
	}
	// Ordered comparison on numeric literals.
	nb := newTestFrame(map[string]rdf.Term{"a": rdf.Integer(3), "b": rdf.Integer(12)}, nil)
	lt := CompareCond{Op: LT, L: V("a"), R: V("b")}
	if got, err := nb.eval(lt); err != nil || !got {
		t.Errorf("3 < 12 evaluated %v,%v", got, err)
	}
	// Ordered comparison falls back to lexicographic for non-numbers.
	sb := newTestFrame(map[string]rdf.Term{"a": rdf.NewIRI("apple"), "b": rdf.NewIRI("banana")}, nil)
	if got, err := sb.eval(CompareCond{Op: LT, L: V("a"), R: V("b")}); err != nil || !got {
		t.Errorf("apple < banana evaluated %v,%v", got, err)
	}
}

func TestArithCondEval(t *testing.T) {
	b := newTestFrame(nil, map[string]temporal.Interval{
		"t":  temporal.MustNew(1984, 1986), // playsFor spell
		"t'": temporal.MustNew(1951, 2017), // birth interval
	})
	// Age at spell start: start(t) - start(t') = 33.
	age := NumBin{Op: NumSub, L: TimeNum{Acc: AccStart, T: TV("t")}, R: TimeNum{Acc: AccStart, T: TV("t'")}}
	teen := ArithCond{Op: LT, L: age, R: NumConst(20)}
	if got, err := b.eval(teen); err != nil || got {
		t.Errorf("33 < 20 evaluated %v,%v", got, err)
	}
	adult := ArithCond{Op: GE, L: age, R: NumConst(20)}
	if got, err := b.eval(adult); err != nil || !got {
		t.Errorf("33 >= 20 evaluated %v,%v", got, err)
	}
	dur := ArithCond{Op: EQ, L: TimeNum{Acc: AccDuration, T: TV("t")}, R: NumConst(3)}
	if got, err := b.eval(dur); err != nil || !got {
		t.Errorf("duration = 3 evaluated %v,%v", got, err)
	}
	end := ArithCond{Op: EQ, L: TimeNum{Acc: AccEnd, T: TV("t")}, R: NumConst(1986)}
	if got, err := b.eval(end); err != nil || !got {
		t.Errorf("end = 1986 evaluated %v,%v", got, err)
	}
	add := ArithCond{Op: EQ, L: NumBin{Op: NumAdd, L: NumConst(2), R: NumConst(3)}, R: NumConst(5)}
	if got, err := b.eval(add); err != nil || !got {
		t.Errorf("2+3=5 evaluated %v,%v", got, err)
	}
	if _, err := b.eval(ArithCond{Op: LT, L: TimeNum{Acc: AccStart, T: TV("u")}, R: NumConst(0)}); err == nil {
		t.Error("unbound time in arithmetic should error")
	}
}

func TestObjNumEval(t *testing.T) {
	b := newTestFrame(map[string]rdf.Term{"z": rdf.Integer(1951), "s": rdf.NewIRI("Chelsea")}, nil)
	if v, err := b.evalNum(ObjNum{T: V("z")}); err != nil || v != 1951 {
		t.Errorf("ObjNum = %d,%v", v, err)
	}
	if _, err := b.evalNum(ObjNum{T: V("s")}); err == nil {
		t.Error("non-numeric term should error")
	}
	if _, err := b.evalNum(ObjNum{T: V("u")}); err == nil {
		t.Error("unbound term should error")
	}
}

func TestCmpOpNegate(t *testing.T) {
	pairs := [][2]CmpOp{{EQ, NE}, {LT, GE}, {LE, GT}}
	for _, p := range pairs {
		if p[0].Negate() != p[1] || p[1].Negate() != p[0] {
			t.Errorf("Negate(%v) pair broken", p[0])
		}
	}
}

func TestCondVars(t *testing.T) {
	c := ArithCond{Op: LT,
		L: NumBin{Op: NumSub, L: TimeNum{Acc: AccStart, T: TV("t")}, R: ObjNum{T: V("z")}},
		R: NumConst(20)}
	vars := c.CondVars(nil)
	if len(vars) != 2 || vars[0] != "t" || vars[1] != "z" {
		t.Errorf("CondVars = %v", vars)
	}
}

func ruleF1() *Rule {
	return &Rule{
		Name:   "f1",
		Body:   []QuadAtom{{S: V("x"), P: CIRI("playsFor"), O: V("y"), T: TV("t")}},
		Head:   Head{Kind: HeadAtom, Atom: QuadAtom{S: V("x"), P: CIRI("worksFor"), O: V("y"), T: TV("t")}},
		Weight: 2.5,
	}
}

func constraintC2() *Rule {
	return &Rule{
		Name: "c2",
		Body: []QuadAtom{
			{S: V("x"), P: CIRI("coach"), O: V("y"), T: TV("t")},
			{S: V("x"), P: CIRI("coach"), O: V("z"), T: TV("t'")},
		},
		Conds: []Condition{CompareCond{Op: NE, L: V("y"), R: V("z")}},
		Head: Head{Kind: HeadCond, Cond: AllenCond{Name: "disjoint", Rels: temporal.DisjointSet,
			L: TV("t"), R: TV("t'")}},
		Weight: math.Inf(1),
	}
}

func TestRuleClassification(t *testing.T) {
	f1, c2 := ruleF1(), constraintC2()
	if f1.IsConstraint() || f1.Hard() {
		t.Error("f1 is a soft inference rule")
	}
	if !c2.IsConstraint() || !c2.Hard() {
		t.Error("c2 is a hard constraint")
	}
}

func TestRuleValidate(t *testing.T) {
	if err := ruleF1().Validate(); err != nil {
		t.Errorf("f1 invalid: %v", err)
	}
	if err := constraintC2().Validate(); err != nil {
		t.Errorf("c2 invalid: %v", err)
	}
	bad := []*Rule{
		{Name: "empty", Weight: 1},
		{Name: "unsafe-head",
			Body:   []QuadAtom{{S: V("x"), P: CIRI("p"), O: V("y"), T: TV("t")}},
			Head:   Head{Kind: HeadAtom, Atom: QuadAtom{S: V("w"), P: CIRI("q"), O: V("y"), T: TV("t")}},
			Weight: 1},
		{Name: "unsafe-cond",
			Body:   []QuadAtom{{S: V("x"), P: CIRI("p"), O: V("y"), T: TV("t")}},
			Conds:  []Condition{CompareCond{Op: NE, L: V("y"), R: V("z")}},
			Head:   Head{Kind: HeadFalse},
			Weight: 1},
		{Name: "nan",
			Body:   []QuadAtom{{S: V("x"), P: CIRI("p"), O: V("y"), T: TV("t")}},
			Head:   Head{Kind: HeadFalse},
			Weight: math.NaN()},
		{Name: "neg",
			Body:   []QuadAtom{{S: V("x"), P: CIRI("p"), O: V("y"), T: TV("t")}},
			Head:   Head{Kind: HeadFalse},
			Weight: -2},
		{Name: "nil-cond-head",
			Body:   []QuadAtom{{S: V("x"), P: CIRI("p"), O: V("y"), T: TV("t")}},
			Head:   Head{Kind: HeadCond},
			Weight: 1},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rule %s should be invalid", r.Name)
		}
	}
}

func TestRuleString(t *testing.T) {
	got := constraintC2().String()
	for _, want := range []string{"quad(x, coach, y, t)", "quad(x, coach, z, t')", "y != z", "disjoint(t, t')", "w = inf"} {
		if !strings.Contains(got, want) {
			t.Errorf("String missing %q: %s", want, got)
		}
	}
	if got := ruleF1().String(); !strings.Contains(got, "w = 2.5") {
		t.Errorf("weight missing: %s", got)
	}
}

func TestProgram(t *testing.T) {
	p := &Program{Rules: []*Rule{ruleF1(), constraintC2()}}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(p.InferenceRules()); got != 1 {
		t.Errorf("InferenceRules = %d", got)
	}
	if got := len(p.Constraints()); got != 1 {
		t.Errorf("Constraints = %d", got)
	}
	preds := p.PredicatesUsed()
	want := []string{"coach", "playsFor", "worksFor"}
	if len(preds) != len(want) {
		t.Fatalf("PredicatesUsed = %v", preds)
	}
	for i := range want {
		if preds[i] != want[i] {
			t.Errorf("PredicatesUsed[%d] = %q", i, preds[i])
		}
	}
}

func TestProgramDuplicateNames(t *testing.T) {
	a, b := ruleF1(), ruleF1()
	p := &Program{Rules: []*Rule{a, b}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("want duplicate-name error, got %v", err)
	}
}

func TestBodyVarsDedupe(t *testing.T) {
	c2 := constraintC2()
	vars := c2.BodyVars()
	want := []string{"x", "y", "t", "z", "t'"}
	if len(vars) != len(want) {
		t.Fatalf("BodyVars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Errorf("BodyVars[%d] = %q, want %q", i, vars[i], want[i])
		}
	}
}

func TestHeadString(t *testing.T) {
	if (Head{Kind: HeadFalse}).String() != "false" {
		t.Error("falsum head string")
	}
}
