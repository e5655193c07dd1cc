// Command tecore-bench measures the repository's headline performance
// scenarios and emits machine-readable JSON, seeding the perf
// trajectory tracked across PRs:
//
//	BENCH_incremental.json  single-fact update re-solve vs full re-solve
//	                        (the incremental engine's raison d'être)
//	BENCH_parallel.json     solve wall-clock across worker pool sizes
//	BENCH_components.json   monolithic vs component-decomposed solving on
//	                        the clustered benchmark, cold and incremental,
//	                        scaling in cluster count
//	BENCH_repair.json       whole-graph vs component-incremental repair
//	                        read-out (conflict analysis, confidences,
//	                        violation counts) on incremental re-solves of
//	                        the clustered benchmark
//	BENCH_outcome.json      the live delta-patched Outcome stage on
//	                        incremental re-solves of the clustered
//	                        benchmark
//	BENCH_serve.json        HTTP session serving under concurrent load:
//	                        K sessions streaming batch updates, serial vs
//	                        concurrent throughput and latency percentiles,
//	                        plus batched vs per-fact ingest
//	BENCH_scale.json        memory/latency trajectory over fact count:
//	                        bytes/fact (heap-quiesced MemStats + the
//	                        store's own estimate), cold-solve time and
//	                        single-fact update latency at 10⁵–10⁷ facts
//	BENCH_update.json       single-fact update latency over fact count
//	                        with the delta-maintained solve plan,
//	                        p50/p99 plus per-stage breakdown
//	BENCH_ground.json       cold grounding wall-clock over fact count on
//	                        the selectivity-planned compiled pipeline
//	BENCH_restart.json      process restart with and without the durable
//	                        session directory: cold (re-parse + reload +
//	                        cold solve) vs warm (snapshot load + WAL
//	                        replay + warm-started solve), plus journal
//	                        replay bandwidth
//
// Usage:
//
//	tecore-bench [-out dir] [-scenario incremental|parallel|components|repair|outcome|serve|scale|ground|update|restart|all]
//	             [-players N] [-clusters N] [-sessions K] [-updates U] [-reps R]
//	             [-scale-facts N,N,...] [-scale-cluster-size N]
//	             [-ground-facts N,N,...] [-update-facts N,N,...]
//	             [-restart-facts N] [-restart-cluster-size N]
//	             [-assert-repair-speedup X] [-assert-outcome-ms MS]
//	             [-assert-serve-speedup X] [-assert-bytes-per-fact B]
//	             [-assert-ground-ms MS] [-assert-plan-sync-ms MS]
//	             [-assert-restart-speedup X]
//
// The scale, ground, update and restart scenarios are not part of
// -scenario all: their default sweeps run minutes and allocate
// gigabytes by design; request them explicitly (CI runs them at small
// smoke sizes).
//
// Timings are medians of R runs on the local machine. The -assert-*-ms
// gates are absolute latency budgets; the -assert-*-speedup gates
// compare two production paths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	tecore "repro"
)

func main() {
	out := flag.String("out", ".", "directory to write BENCH_*.json into")
	scenario := flag.String("scenario", "all", "incremental, parallel, components, repair, outcome, serve or all")
	players := flag.Int("players", 2000, "FootballDB generator size for the incremental scenario")
	clusters := flag.Int("clusters", 0, "single cluster count for the components/repair scenarios (0 = the default sweep)")
	sessions := flag.Int("sessions", 8, "concurrent sessions for the serve scenario")
	updates := flag.Int("updates", 20, "updates per session per pass for the serve scenario")
	reps := flag.Int("reps", 3, "runs per measurement (median reported)")
	assertRepair := flag.Float64("assert-repair-speedup", 0,
		"repair scenario: exit non-zero unless the largest workload's incremental repair speedup reaches this factor (0 = no assertion)")
	assertOutcome := flag.Float64("assert-outcome-ms", 0,
		"outcome scenario: exit non-zero if the largest workload's median live-outcome stage exceeds this budget in ms (0 = no assertion)")
	assertServe := flag.Float64("assert-serve-speedup", 0,
		"serve scenario: exit non-zero unless concurrent throughput beats serial by this factor (0 = no assertion)")
	scaleFacts := flag.String("scale-facts", "100000,300000,1000000",
		"scale scenario: comma-separated target fact counts to sweep")
	scaleClusterSize := flag.Int("scale-cluster-size", 6,
		"scale scenario: facts per cluster (component size distribution knob)")
	assertBytesPerFact := flag.Float64("assert-bytes-per-fact", 0,
		"scale scenario: exit non-zero if the last point's loaded bytes/fact exceeds this budget (0 = no assertion)")
	groundFacts := flag.String("ground-facts", "100000,300000,1000000",
		"ground scenario: comma-separated target fact counts to sweep")
	assertGround := flag.Float64("assert-ground-ms", 0,
		"ground scenario: exit non-zero if the largest workload's median cold grounding time exceeds this budget in ms (0 = no assertion)")
	updateFacts := flag.String("update-facts", "100000,300000,1000000",
		"update scenario: comma-separated target fact counts to sweep")
	assertPlan := flag.Float64("assert-plan-sync-ms", 0,
		"update scenario: exit non-zero if the largest workload's plan sync p50 exceeds this budget in ms (0 = no assertion)")
	restartFacts := flag.Int("restart-facts", 100000,
		"restart scenario: target fact count for the cold/warm restart comparison")
	restartClusterSize := flag.Int("restart-cluster-size", 60,
		"restart scenario: facts per cluster (above the exact-solve component limit, so the first solve is optimiser-dominant)")
	assertRestart := flag.Float64("assert-restart-speedup", 0,
		"restart scenario: exit non-zero unless the warm restart beats the cold restart by this factor (0 = no assertion)")
	flag.Parse()

	switch *scenario {
	case "incremental", "parallel", "components", "repair", "outcome", "serve", "scale", "ground", "update", "restart", "all":
	default:
		fmt.Fprintf(os.Stderr, "tecore-bench: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if *scenario == "incremental" || *scenario == "all" {
		if err := runIncremental(*out, *players, *reps); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: incremental: %v\n", err)
			os.Exit(1)
		}
	}
	if *scenario == "parallel" || *scenario == "all" {
		if err := runParallel(*out, *reps); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: parallel: %v\n", err)
			os.Exit(1)
		}
	}
	if *scenario == "components" || *scenario == "all" {
		if err := runComponents(*out, *clusters, *reps); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: components: %v\n", err)
			os.Exit(1)
		}
	}
	if *scenario == "repair" || *scenario == "all" {
		if err := runRepair(*out, *clusters, *reps, *assertRepair); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: repair: %v\n", err)
			os.Exit(1)
		}
	}
	if *scenario == "outcome" || *scenario == "all" {
		if err := runOutcome(*out, *clusters, *reps, *assertOutcome); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: outcome: %v\n", err)
			os.Exit(1)
		}
	}
	if *scenario == "serve" || *scenario == "all" {
		if err := runServe(*out, *sessions, *updates, *reps, *assertServe); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: serve: %v\n", err)
			os.Exit(1)
		}
	}
	// Deliberately not under "all": the default sweeps are minutes of work.
	if *scenario == "scale" {
		if err := runScale(*out, *scaleFacts, *scaleClusterSize, *reps, *assertBytesPerFact); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: scale: %v\n", err)
			os.Exit(1)
		}
	}
	if *scenario == "ground" {
		if err := runGround(*out, *groundFacts, *scaleClusterSize, *reps, *assertGround); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: ground: %v\n", err)
			os.Exit(1)
		}
	}
	if *scenario == "update" {
		if err := runUpdate(*out, *updateFacts, *scaleClusterSize, *reps, *assertPlan); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: update: %v\n", err)
			os.Exit(1)
		}
	}
	if *scenario == "restart" {
		if err := runRestart(*out, *restartFacts, *restartClusterSize, *reps, *assertRestart); err != nil {
			fmt.Fprintf(os.Stderr, "tecore-bench: restart: %v\n", err)
			os.Exit(1)
		}
	}
}

func medianMS(reps int, f func() error) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(start).Microseconds())/1000)
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

func writeReport(dir, name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// IncrementalScenario is one solver's full-vs-update measurement.
type IncrementalScenario struct {
	Solver   string  `json:"solver"`
	FullMS   float64 `json:"full_ms"`
	UpdateMS float64 `json:"update_ms"`
	Speedup  float64 `json:"speedup"`
}

// IncrementalReport is the BENCH_incremental.json schema.
type IncrementalReport struct {
	Benchmark  string                `json:"benchmark"`
	KGFacts    int                   `json:"kg_facts"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Scenarios  []IncrementalScenario `json:"scenarios"`
}

func runIncremental(dir string, players, reps int) error {
	ds := tecore.GenerateFootball(tecore.FootballConfig{Players: players, NoiseRatio: 0.05, Seed: 9})
	probe := tecore.NewQuad("player_42", "playsFor", "bench_club",
		tecore.MustInterval(1995, 1997), 0.7)
	report := IncrementalReport{
		Benchmark:  "BenchmarkIncrementalUpdate",
		KGFacts:    len(ds.Graph),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, solver := range []tecore.Solver{tecore.SolverPSL, tecore.SolverMLN} {
		fullMS, err := medianMS(reps, func() error {
			s := tecore.NewSession()
			if err := s.LoadGraph(ds.Graph); err != nil {
				return err
			}
			if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
				return err
			}
			if err := s.AddFact(probe); err != nil {
				return err
			}
			_, err := s.Solve(tecore.SolveOptions{Solver: solver})
			return err
		})
		if err != nil {
			return err
		}

		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			return err
		}
		if err := s.LoadProgramText(tecore.FootballProgram); err != nil {
			return err
		}
		if _, err := s.Solve(tecore.SolveOptions{Solver: solver}); err != nil {
			return err
		}
		toggle := false
		updateMS, err := medianMS(reps*2, func() error {
			toggle = !toggle
			if toggle {
				if err := s.AddFact(probe); err != nil {
					return err
				}
			} else {
				s.RemoveFact(probe)
			}
			res, err := s.Solve(tecore.SolveOptions{Solver: solver})
			if err != nil {
				return err
			}
			if !res.Incremental {
				return fmt.Errorf("update solve did not take the delta path")
			}
			return nil
		})
		if err != nil {
			return err
		}
		report.Scenarios = append(report.Scenarios, IncrementalScenario{
			Solver:   solver.String(),
			FullMS:   fullMS,
			UpdateMS: updateMS,
			Speedup:  fullMS / updateMS,
		})
	}
	return writeReport(dir, "BENCH_incremental.json", report)
}

// ComponentsScenario compares the monolithic and component-decomposed
// paths at one cluster count, cold and incremental.
type ComponentsScenario struct {
	Clusters int `json:"clusters"`
	Facts    int `json:"facts"`
	// Components is the conflict-component count of the cold solve.
	Components int `json:"components"`
	// Cold: full from-scratch solve.
	ColdMonolithicMS float64 `json:"cold_monolithic_ms"`
	ColdComponentMS  float64 `json:"cold_component_ms"`
	ColdSpeedup      float64 `json:"cold_speedup"`
	// Incremental: single-fact toggle on a warm session. The monolithic
	// number is PR 2's whole-graph delta path (re-ground the delta, warm
	// re-solve of the whole network); the component number re-solves
	// only the dirtied component and reuses the rest from cache.
	IncrementalMonolithicMS float64 `json:"incremental_monolithic_ms"`
	IncrementalComponentMS  float64 `json:"incremental_component_ms"`
	IncrementalSpeedup      float64 `json:"incremental_speedup"`
	// SolverMS isolates the inference stage (grounding sync + MAP solve,
	// excluding the conflict-resolution read-out that both paths share):
	// this is where re-solve work ∝ dirty components shows directly.
	IncrementalMonolithicSolverMS float64 `json:"incremental_monolithic_solver_ms"`
	IncrementalComponentSolverMS  float64 `json:"incremental_component_solver_ms"`
	IncrementalSolverSpeedup      float64 `json:"incremental_solver_speedup"`
	// ReusedComponents counts cache hits in an incremental component
	// re-solve (re-solve work ∝ dirty components).
	ReusedComponents int `json:"reused_components"`
}

// ComponentsReport is the BENCH_components.json schema.
type ComponentsReport struct {
	Benchmark  string               `json:"benchmark"`
	Workload   string               `json:"workload"`
	Solver     string               `json:"solver"`
	GoMaxProcs int                  `json:"gomaxprocs"`
	Scenarios  []ComponentsScenario `json:"scenarios"`
}

func runComponents(dir string, clusters, reps int) error {
	sizes := []int{50, 150, 400}
	if clusters > 0 {
		sizes = []int{clusters}
	}
	report := ComponentsReport{
		Benchmark:  "BenchmarkComponentSolve",
		Workload:   "clustered (size 6, bridge rate 0.1)",
		Solver:     tecore.SolverMLN.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, n := range sizes {
		ds := tecore.GenerateClustered(tecore.ClusteredConfig{
			Clusters: n, ClusterSize: 6, BridgeRate: 0.1, Seed: 11})
		probe := tecore.NewQuad("player/00001", "playsFor", "club/00001/probe",
			tecore.MustInterval(1991, 1993), 0.55)
		newSession := func() (*tecore.Session, error) {
			s := tecore.NewSession()
			if err := s.LoadGraph(ds.Graph); err != nil {
				return nil, err
			}
			if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
				return nil, err
			}
			return s, nil
		}
		opts := func(component bool) tecore.SolveOptions {
			return tecore.SolveOptions{Solver: tecore.SolverMLN, ComponentSolve: component}
		}

		sc := ComponentsScenario{Clusters: n, Facts: len(ds.Graph)}
		// Cold solves.
		for _, component := range []bool{false, true} {
			ms, err := medianMS(reps, func() error {
				s, err := newSession()
				if err != nil {
					return err
				}
				res, err := s.Solve(opts(component))
				if err != nil {
					return err
				}
				if component {
					sc.Components = res.Stats.Components.Count
				}
				return nil
			})
			if err != nil {
				return err
			}
			if component {
				sc.ColdComponentMS = ms
			} else {
				sc.ColdMonolithicMS = ms
			}
		}
		sc.ColdSpeedup = sc.ColdMonolithicMS / sc.ColdComponentMS

		// Incremental single-fact toggles on a warm session.
		for _, component := range []bool{false, true} {
			s, err := newSession()
			if err != nil {
				return err
			}
			if _, err := s.Solve(opts(component)); err != nil {
				return err
			}
			toggle := false
			var solverMS []float64
			ms, err := medianMS(reps*2, func() error {
				toggle = !toggle
				if toggle {
					if err := s.AddFact(probe); err != nil {
						return err
					}
				} else {
					s.RemoveFact(probe)
				}
				res, err := s.Solve(opts(component))
				if err != nil {
					return err
				}
				if !res.Incremental {
					return fmt.Errorf("update solve did not take the delta path")
				}
				solverMS = append(solverMS, float64(res.Output.Runtime.Microseconds())/1000)
				if component {
					sc.ReusedComponents = res.Stats.Components.Reused
				}
				return nil
			})
			if err != nil {
				return err
			}
			sort.Float64s(solverMS)
			solver := solverMS[len(solverMS)/2]
			if component {
				sc.IncrementalComponentMS = ms
				sc.IncrementalComponentSolverMS = solver
			} else {
				sc.IncrementalMonolithicMS = ms
				sc.IncrementalMonolithicSolverMS = solver
			}
		}
		sc.IncrementalSpeedup = sc.IncrementalMonolithicMS / sc.IncrementalComponentMS
		sc.IncrementalSolverSpeedup = sc.IncrementalMonolithicSolverMS / sc.IncrementalComponentSolverMS
		report.Scenarios = append(report.Scenarios, sc)
	}
	return writeReport(dir, "BENCH_components.json", report)
}

// RepairScenario compares the repair read-out stage — conflict
// analysis, confidence propagation, violation counts — between the
// whole-graph pass and the component-incremental pass at one cluster
// count, on single-fact update re-solves of a warm session.
type RepairScenario struct {
	Clusters int `json:"clusters"`
	Facts    int `json:"facts"`
	// Components is the conflict-component count of the decomposed
	// read-out; Repaired/Reused is its per-update split (re-repair work
	// ∝ dirty components).
	Components         int `json:"components"`
	RepairedComponents int `json:"repaired_components"`
	ReusedComponents   int `json:"reused_components"`
	// WholeGraphRepairMS is the read-out stage of an incremental
	// monolithic re-solve (PR 3's whole-graph repair.Resolve, rescanning
	// every clause); IncrementalRepairMS is the component-decomposed
	// read-out reusing every clean component's cached unit.
	WholeGraphRepairMS  float64 `json:"whole_graph_repair_ms"`
	IncrementalRepairMS float64 `json:"incremental_repair_ms"`
	Speedup             float64 `json:"speedup"`
}

// RepairReport is the BENCH_repair.json schema.
type RepairReport struct {
	Benchmark  string           `json:"benchmark"`
	Workload   string           `json:"workload"`
	Solver     string           `json:"solver"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Scenarios  []RepairScenario `json:"scenarios"`
}

func runRepair(dir string, clusters, reps int, assertSpeedup float64) error {
	sizes := []int{100, 400}
	if clusters > 0 {
		sizes = []int{clusters}
	}
	report := RepairReport{
		Benchmark:  "BenchmarkRepairStage",
		Workload:   "clustered (size 6, bridge rate 0.1)",
		Solver:     tecore.SolverMLN.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, n := range sizes {
		ds := tecore.GenerateClustered(tecore.ClusteredConfig{
			Clusters: n, ClusterSize: 6, BridgeRate: 0.1, Seed: 11})
		probe := tecore.NewQuad("player/00001", "playsFor", "club/00001/probe",
			tecore.MustInterval(1991, 1993), 0.55)
		sc := RepairScenario{Clusters: n, Facts: len(ds.Graph)}

		// component=false: incremental monolithic session, read-out runs
		// the whole-graph pass every update. component=true: the
		// read-out decomposes per component and reuses cached units.
		for _, component := range []bool{false, true} {
			s := tecore.NewSession()
			if err := s.LoadGraph(ds.Graph); err != nil {
				return err
			}
			if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
				return err
			}
			opts := tecore.SolveOptions{Solver: tecore.SolverMLN, ComponentSolve: component}
			if _, err := s.Solve(opts); err != nil {
				return err
			}
			toggle := false
			var repairMS []float64
			for i := 0; i < reps*4; i++ {
				toggle = !toggle
				if toggle {
					if err := s.AddFact(probe); err != nil {
						return err
					}
				} else {
					s.RemoveFact(probe)
				}
				// Quiesce the heap so a collection triggered by earlier
				// iterations' garbage doesn't land inside the timed
				// read-out stage of either mode.
				runtime.GC()
				res, err := s.Solve(opts)
				if err != nil {
					return err
				}
				if !res.Incremental {
					return fmt.Errorf("update solve did not take the delta path")
				}
				rs := res.Stats.Repair
				if rs == nil {
					return fmt.Errorf("solve reported no repair stage stats")
				}
				wantMode := tecore.RepairWholeGraph
				if component {
					wantMode = tecore.RepairComponents
				}
				if rs.Mode != wantMode {
					return fmt.Errorf("repair mode = %q, want %q", rs.Mode, wantMode)
				}
				repairMS = append(repairMS, float64(rs.Total.Nanoseconds())/1e6)
				if component {
					sc.Components = rs.Components
					sc.RepairedComponents = rs.Repaired
					sc.ReusedComponents = rs.Reused
				}
			}
			sort.Float64s(repairMS)
			med := repairMS[len(repairMS)/2]
			if component {
				sc.IncrementalRepairMS = med
			} else {
				sc.WholeGraphRepairMS = med
			}
		}
		if sc.IncrementalRepairMS > 0 {
			// Guard the division: a zero median would put +Inf in the
			// report, which JSON cannot encode.
			sc.Speedup = sc.WholeGraphRepairMS / sc.IncrementalRepairMS
		}
		report.Scenarios = append(report.Scenarios, sc)
	}
	if err := writeReport(dir, "BENCH_repair.json", report); err != nil {
		return err
	}
	if assertSpeedup > 0 {
		last := report.Scenarios[len(report.Scenarios)-1]
		if last.Speedup < assertSpeedup {
			return fmt.Errorf("incremental repair speedup %.2fx at %d clusters below required %.2fx",
				last.Speedup, last.Clusters, assertSpeedup)
		}
		fmt.Printf("repair speedup assertion ok: %.2fx ≥ %.2fx at %d clusters\n",
			last.Speedup, assertSpeedup, last.Clusters)
	}
	return nil
}

// OutcomeScenario measures the Outcome production stage — the live
// delta-patched outcome (splice the dirtied component, materialize from
// the maintained indices) — at one cluster count, on single-fact update
// re-solves of a warm component session.
type OutcomeScenario struct {
	Clusters int `json:"clusters"`
	Facts    int `json:"facts"`
	// Components is the conflict-component count; Patched/Reused is the
	// live outcome's per-update split (patch work ∝ dirty components).
	Components        int `json:"components"`
	PatchedComponents int `json:"patched_components"`
	ReusedComponents  int `json:"reused_components"`
	// LiveOutcomeMS is the median outcome stage of an incremental
	// re-solve.
	LiveOutcomeMS float64 `json:"live_outcome_ms"`
}

// OutcomeReport is the BENCH_outcome.json schema.
type OutcomeReport struct {
	Benchmark  string            `json:"benchmark"`
	Workload   string            `json:"workload"`
	Solver     string            `json:"solver"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Scenarios  []OutcomeScenario `json:"scenarios"`
}

func runOutcome(dir string, clusters, reps int, budgetMS float64) error {
	sizes := []int{100, 400}
	if clusters > 0 {
		sizes = []int{clusters}
	}
	report := OutcomeReport{
		Benchmark:  "BenchmarkOutcomeStage",
		Workload:   "clustered (size 6, bridge rate 0.1)",
		Solver:     tecore.SolverMLN.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, n := range sizes {
		ds := tecore.GenerateClustered(tecore.ClusteredConfig{
			Clusters: n, ClusterSize: 6, BridgeRate: 0.1, Seed: 11})
		probe := tecore.NewQuad("player/00001", "playsFor", "club/00001/probe",
			tecore.MustInterval(1991, 1993), 0.55)
		sc := OutcomeScenario{Clusters: n, Facts: len(ds.Graph)}

		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			return err
		}
		if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
			return err
		}
		opts := tecore.SolveOptions{Solver: tecore.SolverMLN, ComponentSolve: true}
		res, err := s.Solve(opts)
		if err != nil {
			return err
		}
		if res.Stats.Outcome == nil {
			return fmt.Errorf("solve reported no outcome stage stats")
		}
		toggle := false
		var outcomeMS []float64
		for i := 0; i < reps*4; i++ {
			toggle = !toggle
			if toggle {
				if err := s.AddFact(probe); err != nil {
					return err
				}
			} else {
				s.RemoveFact(probe)
			}
			// Quiesce the heap so a collection triggered by earlier
			// iterations' garbage doesn't land inside the timed stage.
			runtime.GC()
			res, err := s.Solve(opts)
			if err != nil {
				return err
			}
			if !res.Incremental {
				return fmt.Errorf("update solve did not take the delta path")
			}
			ocs := res.Stats.Outcome
			if ocs == nil || ocs.Mode != tecore.OutcomeLive {
				return fmt.Errorf("outcome mode = %+v, want %q", ocs, tecore.OutcomeLive)
			}
			outcomeMS = append(outcomeMS, float64(ocs.Total.Nanoseconds())/1e6)
			sc.Components = res.Stats.Repair.Components
			sc.PatchedComponents = ocs.Patched
			sc.ReusedComponents = ocs.Reused
		}
		sc.LiveOutcomeMS = median(outcomeMS)
		report.Scenarios = append(report.Scenarios, sc)
	}
	if err := writeReport(dir, "BENCH_outcome.json", report); err != nil {
		return err
	}
	if budgetMS > 0 {
		last := report.Scenarios[len(report.Scenarios)-1]
		if last.LiveOutcomeMS > budgetMS {
			return fmt.Errorf("live outcome stage %.4fms at %d clusters exceeds the %.4fms budget",
				last.LiveOutcomeMS, last.Clusters, budgetMS)
		}
		fmt.Printf("outcome budget assertion ok: %.4fms ≤ %.4fms at %d clusters\n",
			last.LiveOutcomeMS, budgetMS, last.Clusters)
	}
	return nil
}

// ParallelResult is one (solver, workers) wall-clock sample.
type ParallelResult struct {
	Solver   string  `json:"solver"`
	Parallel int     `json:"parallel"`
	MS       float64 `json:"ms"`
	Speedup  float64 `json:"speedup_vs_sequential"`
}

// ParallelReport is the BENCH_parallel.json schema.
type ParallelReport struct {
	Benchmark  string           `json:"benchmark"`
	Workload   string           `json:"workload"`
	Facts      int              `json:"facts"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Results    []ParallelResult `json:"results"`
}

func runParallel(dir string, reps int) error {
	ds := tecore.GenerateWikidata(tecore.WikidataConfig{Scale: 0.01, Seed: 4})
	perRelation := map[string]tecore.Graph{}
	var largest tecore.Graph
	for _, q := range ds.Graph {
		p := q.Predicate.Value
		perRelation[p] = append(perRelation[p], q)
		if len(perRelation[p]) > len(largest) {
			largest = perRelation[p]
		}
	}
	rel := largest[0].Predicate.Value
	program := fmt.Sprintf(
		"c: quad(x, <%s>, y, t) ^ quad(x, <%s>, z, t') ^ y != z -> disjoint(t, t') w = inf", rel, rel)
	report := ParallelReport{
		Benchmark:  "BenchmarkParallelismScaling",
		Workload:   "wikidata-0.01 largest relation (" + rel + ")",
		Facts:      len(largest),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, solver := range []tecore.Solver{tecore.SolverPSL, tecore.SolverMLN} {
		var seq float64
		for _, parallel := range []int{1, 2, 4, 8} {
			ms, err := medianMS(reps, func() error {
				s := tecore.NewSession()
				if err := s.LoadGraph(largest); err != nil {
					return err
				}
				if err := s.LoadProgramText(program); err != nil {
					return err
				}
				_, err := s.Solve(tecore.SolveOptions{Solver: solver, Parallelism: parallel})
				return err
			})
			if err != nil {
				return err
			}
			if parallel == 1 {
				seq = ms
			}
			report.Results = append(report.Results, ParallelResult{
				Solver: solver.String(), Parallel: parallel, MS: ms, Speedup: seq / ms,
			})
		}
	}
	return writeReport(dir, "BENCH_parallel.json", report)
}
