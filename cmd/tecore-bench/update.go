package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	tecore "repro"
)

// UpdatePoint is one size step of the update scenario: single-fact
// update latency on a warm session with the delta-maintained solve
// plan, plus its per-stage breakdown. The headline maintained latency
// runs with SolveOptions.DeltaOnly — the update-serving configuration,
// consuming Resolution.Delta without materializing the global lists;
// Snapshot* reports the same path with full list materialization for
// consumers that read the whole Outcome every solve.
type UpdatePoint struct {
	Facts       int `json:"facts"`
	Clusters    int `json:"clusters"`
	ClusterSize int `json:"cluster_size"`
	// Components is the conflict-component count of the cold solve.
	Components int `json:"components"`
	// Maintained*: end-to-end single-fact update latency (toggle one
	// fact + incremental re-solve) with the plan patched in place and
	// DeltaOnly read-out.
	MaintainedP50MS float64 `json:"maintained_p50_ms"`
	MaintainedP99MS float64 `json:"maintained_p99_ms"`
	// Snapshot*: maintained plan with full list materialization
	// (DeltaOnly off) — the cost of reading the whole Outcome per solve.
	SnapshotP50MS float64 `json:"snapshot_p50_ms"`
	SnapshotP99MS float64 `json:"snapshot_p99_ms"`
	// Per-stage medians of the maintained path.
	GroundP50MS       float64 `json:"ground_p50_ms"`
	PlanSyncP50MS     float64 `json:"plan_sync_p50_ms"`
	SolverP50MS       float64 `json:"solver_p50_ms"`
	RepairP50MS       float64 `json:"repair_p50_ms"`
	OutcomeP50MS      float64 `json:"outcome_p50_ms"`
	PatchedComponents int     `json:"patched_components"`
}

// UpdateReport is the BENCH_update.json schema.
type UpdateReport struct {
	Benchmark  string        `json:"benchmark"`
	Workload   string        `json:"workload"`
	Solver     string        `json:"solver"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Points     []UpdatePoint `json:"points"`
	// MaintainedP50Ratio is the last/first maintained update-p50 ratio
	// over the sweep — the update-latency scaling signal (1.0 = flat,
	// facts-ratio = linear in store size).
	MaintainedP50Ratio float64 `json:"maintained_p50_ratio"`
}

// percentile returns the p-th percentile of the sorted sample.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + p - 1) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

func runUpdate(dir, sizes string, clusterSize, reps int, planBudgetMS float64) error {
	sizeList, err := parseSizeList(sizes)
	if err != nil {
		return fmt.Errorf("-update-facts: %w", err)
	}
	report := UpdateReport{
		Benchmark:  "BenchmarkUpdatePlanMaintenance",
		Workload:   fmt.Sprintf("clustered (size %d, bridge rate 0.1)", clusterSize),
		Solver:     tecore.SolverMLN.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, target := range sizeList {
		clusters := target / clusterSize
		if clusters < 1 {
			clusters = 1
		}
		ds := tecore.GenerateClustered(tecore.ClusteredConfig{
			Clusters: clusters, ClusterSize: clusterSize, BridgeRate: 0.1, Seed: 11})
		probe := tecore.NewQuad("player/00001", "playsFor", "club/00001/probe",
			tecore.MustInterval(1991, 1993), 0.55)
		pt := UpdatePoint{Facts: len(ds.Graph), Clusters: clusters, ClusterSize: clusterSize}

		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			return err
		}
		if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
			return err
		}
		opts := func(deltaOnly bool) tecore.SolveOptions {
			return tecore.SolveOptions{
				Solver: tecore.SolverMLN, ComponentSolve: true, DeltaOnly: deltaOnly}
		}
		res, err := s.Solve(opts(false))
		if err != nil {
			return err
		}
		pt.Components = res.Stats.Components.Count
		runtime.KeepAlive(ds)

		toggles := reps * 4
		if toggles < 8 {
			toggles = 8
		}
		var lat, planMS, groundMS, solverMS, repairMS, outcomeMS []float64
		measure := func(deltaOnly bool, warmup int) error {
			lat = lat[:0]
			planMS, groundMS = planMS[:0], groundMS[:0]
			solverMS, repairMS, outcomeMS = solverMS[:0], repairMS[:0], outcomeMS[:0]
			toggle := false
			for i := 0; i < warmup+toggles; i++ {
				toggle = !toggle
				runtime.GC() // keep earlier iterations' garbage out of the timed window
				start := time.Now()
				if toggle {
					if err := s.AddFact(probe); err != nil {
						return err
					}
				} else {
					s.RemoveFact(probe)
				}
				res, err := s.Solve(opts(deltaOnly))
				if err != nil {
					return err
				}
				total := float64(time.Since(start).Microseconds()) / 1000
				if !res.Incremental {
					return fmt.Errorf("update solve did not take the delta path")
				}
				st := res.Stats
				if st.Plan == nil || st.Plan.Mode != "maintained" {
					return fmt.Errorf("plan stats = %+v, want mode maintained", st.Plan)
				}
				wantOutcome := tecore.OutcomeLive
				if deltaOnly {
					wantOutcome = tecore.OutcomeDeltaOnly
				}
				if st.Outcome == nil || st.Outcome.Mode != wantOutcome {
					return fmt.Errorf("outcome stats = %+v, want mode %q", st.Outcome, wantOutcome)
				}
				if i < warmup {
					continue
				}
				lat = append(lat, total)
				planMS = append(planMS, float64(st.Plan.Sync.Nanoseconds())/1e6)
				if st.Ground != nil {
					groundMS = append(groundMS, float64(st.Ground.Total.Nanoseconds())/1e6)
				}
				solverMS = append(solverMS, float64(st.Runtime.Nanoseconds())/1e6)
				if st.Repair != nil {
					repairMS = append(repairMS, float64(st.Repair.Total.Nanoseconds())/1e6)
				}
				if st.Outcome != nil {
					outcomeMS = append(outcomeMS, float64(st.Outcome.Total.Nanoseconds())/1e6)
				}
				pt.PatchedComponents = st.Plan.PatchedComponents
			}
			sort.Float64s(lat)
			return nil
		}

		// DeltaOnly first (a couple of unmeasured toggles warm the splice
		// scratch and the probe's atom slots), then the materializing
		// snapshot column.
		if err := measure(true, 2); err != nil {
			return err
		}
		pt.MaintainedP50MS = percentile(lat, 50)
		pt.MaintainedP99MS = percentile(lat, 99)
		pt.PlanSyncP50MS = median(planMS)
		pt.GroundP50MS = median(groundMS)
		pt.SolverP50MS = median(solverMS)
		pt.RepairP50MS = median(repairMS)
		pt.OutcomeP50MS = median(outcomeMS)
		if err := measure(false, 1); err != nil {
			return err
		}
		pt.SnapshotP50MS = percentile(lat, 50)
		pt.SnapshotP99MS = percentile(lat, 99)
		report.Points = append(report.Points, pt)
		fmt.Printf("update: %d facts — maintained p50 %.2fms (p99 %.2fms), snapshot p50 %.2fms, plan sync %.3fms\n",
			pt.Facts, pt.MaintainedP50MS, pt.MaintainedP99MS, pt.SnapshotP50MS, pt.PlanSyncP50MS)
	}
	first, last := report.Points[0], report.Points[len(report.Points)-1]
	if first.MaintainedP50MS > 0 {
		report.MaintainedP50Ratio = last.MaintainedP50MS / first.MaintainedP50MS
	}
	if err := writeReport(dir, "BENCH_update.json", report); err != nil {
		return err
	}
	if planBudgetMS > 0 {
		if last.PlanSyncP50MS > planBudgetMS {
			return fmt.Errorf("plan sync p50 %.3fms at %d facts exceeds the %.3fms budget",
				last.PlanSyncP50MS, last.Facts, planBudgetMS)
		}
		fmt.Printf("plan sync budget assertion ok: %.3fms ≤ %.3fms at %d facts\n",
			last.PlanSyncP50MS, planBudgetMS, last.Facts)
	}
	return nil
}
