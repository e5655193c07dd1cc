package main

import (
	"fmt"
	"runtime"

	tecore "repro"
)

// GroundPoint is one size step of the grounding trajectory: a cold
// grounding pass (forward chaining + program grounding) over the
// clustered workload on the selectivity-planned compiled pipeline.
type GroundPoint struct {
	Facts       int `json:"facts"`
	Clusters    int `json:"clusters"`
	ClusterSize int `json:"cluster_size"`
	// Atoms and Clauses are the ground-network size.
	Atoms   int `json:"atoms"`
	Clauses int `json:"clauses"`
	// CompiledMS is the cold grounding wall time, median over -reps
	// runs.
	CompiledMS float64 `json:"compiled_ms"`
}

// GroundReport is the BENCH_ground.json schema.
type GroundReport struct {
	Benchmark  string        `json:"benchmark"`
	Workload   string        `json:"workload"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Points     []GroundPoint `json:"points"`
}

func runGround(dir, sizes string, clusterSize, reps int, budgetMS float64) error {
	sizeList, err := parseSizeList(sizes)
	if err != nil {
		return fmt.Errorf("-ground-facts: %w", err)
	}
	report := GroundReport{
		Benchmark:  "BenchmarkColdGrounding",
		Workload:   fmt.Sprintf("clustered (size %d, bridge rate 0.1)", clusterSize),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, target := range sizeList {
		clusters := target / clusterSize
		if clusters < 1 {
			clusters = 1
		}
		ds := tecore.GenerateClustered(tecore.ClusteredConfig{
			Clusters: clusters, ClusterSize: clusterSize, BridgeRate: 0.1, Seed: 11})
		s := tecore.NewSession()
		if err := s.LoadGraph(ds.Graph); err != nil {
			return err
		}
		if err := s.LoadProgramText(tecore.ClusteredProgram); err != nil {
			return err
		}
		pt := GroundPoint{Facts: len(ds.Graph), Clusters: clusters, ClusterSize: clusterSize}
		ms, err := medianMS(reps, func() error {
			runtime.GC() // keep the previous pass's garbage out of the timed window
			_, atoms, clauses, err := tecore.GroundProfile(s, 1)
			pt.Atoms, pt.Clauses = atoms, clauses
			return err
		})
		if err != nil {
			return err
		}
		pt.CompiledMS = ms
		report.Points = append(report.Points, pt)
		fmt.Printf("ground: %d facts — compiled %.0fms (%d atoms, %d clauses)\n",
			pt.Facts, pt.CompiledMS, pt.Atoms, pt.Clauses)
	}
	if err := writeReport(dir, "BENCH_ground.json", report); err != nil {
		return err
	}
	if budgetMS > 0 {
		last := report.Points[len(report.Points)-1]
		if last.CompiledMS > budgetMS {
			return fmt.Errorf("cold grounding %.1fms at %d facts exceeds the %.1fms budget",
				last.CompiledMS, last.Facts, budgetMS)
		}
		fmt.Printf("ground budget assertion ok: %.1fms ≤ %.1fms at %d facts\n",
			last.CompiledMS, budgetMS, last.Facts)
	}
	return nil
}
