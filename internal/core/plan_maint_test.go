package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/temporal"
	"repro/internal/translate"
)

// The maintained solve plan's contract: after every incremental solve,
// the session planner's delta-patched plan must be byte-identical —
// same canonical Order, same VarOf, same component partition including
// generations and local numbering — to a fresh engine.NewPlan over the
// same engine state, and the Resolution produced through it must be
// byte-identical to one produced by an identically-driven session whose
// planner is dropped before every solve, so each solve runs on a plan
// the planner rebuilt from scratch. These tests drive
// randomized add/remove/solve schedules (single-component dirtying,
// component merges via bridges, splits via retraction, retract-then-
// revive, no-delta re-solves) at parallelism 1 and N and check both
// properties at every step.

// dropPlanner discards the session engine's planner, so the next
// component solve builds its plan from scratch (the planner's first
// build) while keeping every other piece of engine state — grounding,
// warm starts, solution and read-out caches.
func dropPlanner(s *Session) {
	if s.engine != nil {
		s.engine.planner = nil
	}
}

// checkPlanMatchesFresh compares the session's maintained plan against
// a from-scratch NewPlan over the same engine state.
func checkPlanMatchesFresh(t *testing.T, s *Session, step int) {
	t.Helper()
	eng := s.engine
	if eng == nil || eng.planner == nil {
		t.Fatalf("step %d: session kept no maintained planner", step)
	}
	plan := eng.planner.Plan()
	fresh := engine.NewPlan(eng.g.Atoms(), eng.cs)
	if !reflect.DeepEqual(plan.Order, fresh.Order) {
		t.Fatalf("step %d: maintained Order diverged\nmaintained: %v\nfresh:      %v", step, plan.Order, fresh.Order)
	}
	if !reflect.DeepEqual(plan.VarOf, fresh.VarOf) {
		t.Fatalf("step %d: maintained VarOf diverged\nmaintained: %v\nfresh:      %v", step, plan.VarOf, fresh.VarOf)
	}
	if !reflect.DeepEqual(plan.Comps, fresh.Comps) {
		t.Fatalf("step %d: maintained Comps diverged\nmaintained: %+v\nfresh:      %+v", step, plan.Comps, fresh.Comps)
	}
	for _, c := range plan.Comps {
		for li, a := range c.Atoms {
			if got, want := plan.Local(a), fresh.Local(a); got != want || got != int32(li) {
				t.Fatalf("step %d: Local(%d) = %d, fresh %d, position %d", step, a, got, want, li)
			}
		}
	}
}

// canonOutcome strips the stats that legitimately differ between the
// maintained and rebuilt plan paths (timings, plan mode) so the rest of
// the Resolution can be compared bitwise.
func canonOutcome(r *Resolution) Resolution {
	c := *r
	oc := *r.Outcome
	oc.Stats.Runtime = 0
	oc.Stats.Plan = nil
	oc.Stats.Repair = nil
	oc.Stats.Outcome = nil
	oc.Stats.Ground = nil
	oc.Stats.Components = nil
	c.Outcome = &oc
	c.Output = nil
	c.Delta = nil
	return c
}

func testPlanMaintenanceDifferential(t *testing.T, solver translate.Solver, parallelism int, seed int64) {
	t.Helper()
	maint := NewSession()
	rebuilt := NewSession()
	for _, s := range []*Session{maint, rebuilt} {
		if err := s.LoadProgramText(equivProgram); err != nil {
			t.Fatal(err)
		}
	}
	pool := equivPool(6, 3)
	rng := rand.New(rand.NewSource(seed))
	live := make([]bool, len(pool))

	apply := func(s *Session, op int, idx int) error {
		if op == 0 {
			return s.AddFact(pool[idx])
		}
		s.RemoveFact(pool[idx])
		return nil
	}

	// Start from a partial load so early deltas both insert and remove.
	for i := range pool {
		if i%2 == 0 {
			live[i] = true
			for _, s := range []*Session{maint, rebuilt} {
				if err := s.AddFact(pool[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for step := 0; step < 30; step++ {
		// 1–3 mutations per step: adds, removes, retract-then-revive.
		for m := rng.Intn(3) + 1; m > 0; m-- {
			idx := rng.Intn(len(pool))
			op := 0
			if live[idx] && rng.Intn(2) == 0 {
				op = 1
			}
			live[idx] = op == 0
			for _, s := range []*Session{maint, rebuilt} {
				if err := apply(s, op, idx); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		if step%7 == 3 {
			// No-delta re-solve: the empty-delta fast path.
			resA, err := maint.Solve(SolveOptions{Solver: solver, ComponentSolve: true, Parallelism: parallelism})
			if err != nil {
				t.Fatalf("step %d (no-delta): %v", step, err)
			}
			if resA.Stats.Plan == nil || resA.Stats.Plan.Mode != "maintained" {
				t.Fatalf("step %d: no-delta solve not maintained: %+v", step, resA.Stats.Plan)
			}
		}
		resA, err := maint.Solve(SolveOptions{Solver: solver, ComponentSolve: true, Parallelism: parallelism})
		if err != nil {
			t.Fatalf("step %d (maintained): %v", step, err)
		}
		dropPlanner(rebuilt)
		resB, err := rebuilt.Solve(SolveOptions{Solver: solver, ComponentSolve: true, Parallelism: parallelism})
		if err != nil {
			t.Fatalf("step %d (rebuilt): %v", step, err)
		}
		if ps := resB.Stats.Plan; ps == nil || ps.Mode != "rebuilt" {
			t.Fatalf("step %d: a dropped planner did not rebuild: %+v", step, ps)
		}
		if step > 0 {
			if ps := resA.Stats.Plan; ps == nil || ps.Mode != "maintained" {
				t.Fatalf("step %d: incremental solve did not maintain the plan: %+v", step, ps)
			}
		}
		checkPlanMatchesFresh(t, maint, step)
		a, b := canonOutcome(resA), canonOutcome(resB)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: maintained-plan Resolution diverged from the rebuilt plan's\nmaintained: %+v\nrebuilt:    %+v",
				step, a.Outcome, b.Outcome)
		}
	}
}

func TestPlanMaintenanceDifferentialMLN(t *testing.T) {
	testPlanMaintenanceDifferential(t, translate.SolverMLN, 1, 11)
}

func TestPlanMaintenanceDifferentialMLNParallel(t *testing.T) {
	testPlanMaintenanceDifferential(t, translate.SolverMLN, 0, 23)
}

func TestPlanMaintenanceDifferentialPSL(t *testing.T) {
	testPlanMaintenanceDifferential(t, translate.SolverPSL, 1, 37)
}

func TestPlanMaintenanceDifferentialPSLParallel(t *testing.T) {
	testPlanMaintenanceDifferential(t, translate.SolverPSL, 0, 41)
}

// TestPlanMaintenanceMergeSplitOneDelta drives a component merge AND a
// split through a single delta: one bridge fact joining two subjects'
// conflict chains is retracted while another bridge between two other
// subjects is added, all consumed by one solve.
func TestPlanMaintenanceMergeSplitOneDelta(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	for _, q := range equivPool(4, 3) {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	opts := SolveOptions{Solver: translate.SolverMLN, ComponentSolve: true}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	// The cross-subject bridges of equivPool: subject s coaches Club_{s-1}_0.
	bridge := func(a int) rdf.Quad {
		return rdf.NewQuad(fmt.Sprintf("P%d", a+1), "coach", fmt.Sprintf("Club_%d_0", a), temporal.MustNew(2000, 2002), 0.55)
	}
	if !s.RemoveFact(bridge(0)) {
		t.Fatal("bridge retraction missed")
	}
	if err := s.AddFact(rdf.NewQuad("P3", "coach", "Club_0_1", temporal.MustNew(2001, 2003), 0.5)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan.Mode != "maintained" {
		t.Fatalf("merge+split delta fell off the maintained path: %+v", res.Stats.Plan)
	}
	if res.Stats.Plan.PatchedComponents == 0 {
		t.Fatalf("merge+split delta patched no components: %+v", res.Stats.Plan)
	}
	checkPlanMatchesFresh(t, s, 0)
}

// TestPlanMaintenanceRetractRevive retracts a fact, solves, re-adds the
// identical fact (reviving the atom under its stable id) and solves
// again; the maintained plan must track both transitions.
func TestPlanMaintenanceRetractRevive(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	pool := equivPool(3, 3)
	for _, q := range pool {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	opts := SolveOptions{Solver: translate.SolverMLN, ComponentSolve: true}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	target := pool[1]
	if !s.RemoveFact(target) {
		t.Fatal("retraction missed")
	}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	checkPlanMatchesFresh(t, s, 0)
	if err := s.AddFact(target); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan.Mode != "maintained" {
		t.Fatalf("revive fell off the maintained path: %+v", res.Stats.Plan)
	}
	checkPlanMatchesFresh(t, s, 1)

	// Retract-then-revive within ONE delta: no net order change.
	if !s.RemoveFact(target) {
		t.Fatal("second retraction missed")
	}
	if err := s.AddFact(target); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	checkPlanMatchesFresh(t, s, 2)
}

// TestPlanMaintenanceEmptyDelta re-solves with no store delta: the
// planner must report a maintained plan with zero splice work.
func TestPlanMaintenanceEmptyDelta(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	for _, q := range equivPool(3, 2) {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	opts := SolveOptions{Solver: translate.SolverMLN, ComponentSolve: true}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Stats.Plan
	if ps.Mode != "maintained" || ps.InsertedAtoms != 0 || ps.RemovedAtoms != 0 ||
		ps.ShiftedVars != 0 || ps.PatchedComponents != 0 || ps.DroppedComponents != 0 {
		t.Fatalf("empty delta did plan work: %+v", ps)
	}
	checkPlanMatchesFresh(t, s, 0)
}

// TestPlanMaintenanceMixedRebuild interleaves from-scratch plan
// rebuilds (a dropped planner) with maintained solves on one session:
// the rebuild must re-anchor the atom journal and component change log
// so the next maintained sync patches exactly the later deltas.
func TestPlanMaintenanceMixedRebuild(t *testing.T) {
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	pool := equivPool(4, 3)
	for _, q := range pool {
		if err := s.AddFact(q); err != nil {
			t.Fatal(err)
		}
	}
	opts := SolveOptions{Solver: translate.SolverMLN, ComponentSolve: true}
	if _, err := s.Solve(opts); err != nil {
		t.Fatal(err)
	}
	for step, rebuild := range []bool{true, false, true, true, false} {
		if step%2 == 0 {
			s.RemoveFact(pool[step])
		} else if err := s.AddFact(pool[step-1]); err != nil {
			t.Fatal(err)
		}
		if rebuild {
			dropPlanner(s)
		}
		res, err := s.Solve(opts)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want := "maintained"
		if rebuild {
			want = "rebuilt"
		}
		if res.Stats.Plan.Mode != want {
			t.Fatalf("step %d: plan mode %q, want %q", step, res.Stats.Plan.Mode, want)
		}
		checkPlanMatchesFresh(t, s, step)
	}
}

// TestPlanMaintenanceReorderedComponents drives deltas whose touched
// components appear in the partition in a different order than their
// keys sort in (random confidences and retract/re-add cycles regroup
// atoms while component keys stay put). The partition patch must walk
// the replaced components in list order, or a stale component stays
// listed next to its replacement.
func TestPlanMaintenanceReorderedComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	conf := func() float64 { return 0.5 + 0.45*rng.Float64() }
	var pool []rdf.Quad
	for s := 0; s < 5; s++ {
		subj := fmt.Sprintf("P%d", s)
		start := int64(2000)
		for c := 0; c < 4; c++ {
			end := start + 2 + int64(rng.Intn(3))
			pool = append(pool, rdf.NewQuad(subj, "coach", fmt.Sprintf("Club_%d_%d", s, c),
				temporal.MustNew(start, end), conf()))
			start = end
		}
		pool = append(pool, rdf.NewQuad(subj, "playsFor", fmt.Sprintf("Club_%d_0", s),
			temporal.MustNew(1990, 1995), conf()))
		if s > 0 {
			pool = append(pool, rdf.NewQuad(subj, "coach", fmt.Sprintf("Club_%d_0", s-1),
				temporal.MustNew(2000, 2002), conf()))
		}
	}
	s := NewSession()
	if err := s.LoadProgramText(equivProgram); err != nil {
		t.Fatal(err)
	}
	live := make(map[int]bool)
	for i := range pool {
		if i%2 == 0 {
			if err := s.AddFact(pool[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = true
		}
	}
	mut := rand.New(rand.NewSource(107))
	opts := SolveOptions{Solver: translate.SolverPSL, ComponentSolve: true, ComponentExactLimit: 4, Parallelism: 1}
	for step := 0; step < 8; step++ {
		for m := 0; m < 1+mut.Intn(3); m++ {
			i := mut.Intn(len(pool))
			add := !live[i] || mut.Intn(2) == 0
			if add {
				if err := s.AddFact(pool[i]); err != nil {
					t.Fatal(err)
				}
			} else {
				s.RemoveFact(pool[i])
			}
			live[i] = add
		}
		if _, err := s.Solve(opts); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkPlanMatchesFresh(t, s, step)
	}
}
