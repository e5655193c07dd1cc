package main

import (
	"encoding/json"
	"time"

	tecore "repro"
)

// solveStats is the part of the program's solve statistics — the
// "stats" object of a solve response, or tecore.Stats — the benchmark
// reads. It is decoded from JSON so it depends only on field names.
type solveStats struct {
	KeptFacts     int
	RemovedFacts  int
	InferredFacts int
	Runtime       time.Duration
	Ground        *struct {
		Total time.Duration
		Rules []struct{ Emitted int64 }
	}
	Components *struct{ Count, Solved, Reused, Fallbacks int }
	Repair     *struct{ Total time.Duration }
	Outcome    *struct{ Total time.Duration }
	Plan       *struct{ Sync time.Duration }
}

func statsOf(st tecore.Stats) (solveStats, error) {
	var s solveStats
	b, err := json.Marshal(st)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// stages splits a solve into disjoint program-reported stages. The
// program's Runtime covers grounding, plan sync and the solver; its
// Repair total covers the outcome read-out.
type stages struct {
	ground, plan, solve, repair, outcome time.Duration
}

func nonNeg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

func (s *solveStats) stages() stages {
	var st stages
	if s.Ground != nil {
		st.ground = s.Ground.Total
	}
	if s.Plan != nil {
		st.plan = s.Plan.Sync
	}
	st.solve = nonNeg(s.Runtime - st.ground - st.plan)
	if s.Repair != nil {
		st.repair = s.Repair.Total
	}
	if s.Outcome != nil {
		st.outcome = s.Outcome.Total
		st.repair = nonNeg(st.repair - st.outcome)
	}
	return st
}

func (st stages) total() time.Duration {
	return st.ground + st.plan + st.solve + st.repair + st.outcome
}

func (s *solveStats) groundings() int64 {
	var n int64
	if s.Ground != nil {
		for _, r := range s.Ground.Rules {
			n += r.Emitted
		}
	}
	return n
}

// traceStages records the stages as program-reported children of the
// span parent; solver names the solver layer ("mln" or "psl").
func (p *pass) traceStages(st stages, solver string, parent, req int64) {
	if p.tr == nil {
		return
	}
	p.tr.reported("ground.total", parent, req, st.ground)
	if st.plan > 0 {
		p.tr.reported("engine.plan_sync", parent, req, st.plan)
	}
	p.tr.reported(solver+".solve", parent, req, st.solve)
	p.tr.reported("repair.analysis", parent, req, st.repair)
	p.tr.reported("repair.outcome", parent, req, st.outcome)
}

// sampleUpdate records the per-layer samples of one incremental
// component solve answered over HTTP in d.
func (p *pass) sampleUpdate(s *solveStats, d time.Duration) {
	st := s.stages()
	p.sample("server.update_overhead_ms", ms(nonNeg(d-st.total())))
	p.sample("ground.update_us", us(st.ground))
	p.sample("engine.plan_sync_us", us(st.plan))
	p.sample("mln.update_us", us(st.solve))
	p.sample("repair.update_us", us(st.repair))
	p.sample("repair.outcome_update_us", us(st.outcome))
	if s.Components != nil {
		p.sample("engine.solved", float64(s.Components.Solved))
		p.mu.Lock()
		p.layer["maxsat.fallbacks"] += float64(s.Components.Fallbacks)
		p.mu.Unlock()
	}
}
