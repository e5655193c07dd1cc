// Command perfbench is the repository's benchmark: it drives TeCoRe
// through its public surfaces — the tecore Go API and the
// internal/server HTTP handler served in-process on a loopback
// listener — under one of two workloads, checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload durable-ingest --seed 1 --seconds 35 --trace 0
//
// README.md in this directory records why each workload exists, which
// layers it loads and bypasses, and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to its driver. A driver runs one
// pass: set-up (repeated p.setupReps times), the timed phase of
// p.seconds, and the output checks.
var workloads = map[string]func(p *pass) error{
	"durable-ingest": runDurableIngest,
	"cold-resolve":   runColdResolve,
}

// setupReps is how many times a workload sets up in an untraced run;
// setup_s is the median. cold-resolve's set-up takes about 0.4 s, so it
// repeats more often to be as steady as durable-ingest's 2 s one.
var setupReps = map[string]int{
	"durable-ingest": 3,
	"cold-resolve":   5,
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units. README.md maps each one to its meaning per workload. The
// median and p99 latencies (latency.*) are reported beside them but are
// not end-to-end metrics: on a shared virtual machine their run-to-run
// spread exceeds any bound a regression check may use (see README.md).
// primary_per_s stands in for the primary latency: it is the primary
// operations' work over the time they took.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"primary_per_s", "1/s"},
	{"secondary_mean_ms", "ms"},
	{"mln_noise_f1", "ratio"},
	{"psl_noise_f1", "ratio"},
	{"solved_bytes_per_fact", "B/fact"},
}

func main() {
	workload := flag.String("workload", "", "durable-ingest or cold-resolve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 35, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: run untraced, then traced, and print per-layer metrics")
	commit := flag.String("commit", "unknown", "commit of the program under test, for the result envelope")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {durable-ingest|cold-resolve} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := passConfig{workload: *workload, seed: *seed, seconds: *seconds, setupReps: setupReps[*workload]}
	if *trace == 1 {
		// Both passes of a traced run set up once: the run reports
		// per-layer metrics, and overhead.setup_s compares like with like.
		cfg.setupReps = 1
	}

	// The untraced pass always runs: it is the end-to-end measurement,
	// and in a traced run the baseline the tracing overhead is taken
	// against.
	plain := newPass(cfg, false)
	if err := drive(plain); err != nil {
		fail(err)
	}
	plain.finish()
	res := plain.result(plain.e2eMetrics())
	report := map[string]any{"untraced": plain.report()}

	if *trace == 1 {
		traced := newPass(cfg, true)
		if err := drive(traced); err != nil {
			fail(err)
		}
		traced.finish()
		layers := traced.layerMetrics()
		tracedE2E := traced.e2eMetrics()
		for name, m := range plain.e2eMetrics() {
			layers["overhead."+name] = metric{Value: tracedE2E[name].Value - m.Value, Unit: m.Unit}
		}
		tr := traced.result(layers)
		res = result{
			Correct:   res.Correct && tr.Correct,
			Attempted: res.Attempted + tr.Attempted,
			Failed:    res.Failed + tr.Failed,
			Metrics:   tr.Metrics,
		}
		report["traced"] = traced.report()
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := traced.tr.write(spans); err != nil {
			fail(err)
		}
		fmt.Printf("spans: %s\n", spans)
		printSelfTimes(traced)
	}

	env := envelope(cfg, *commit, *trace)
	report["envelope"] = env
	report["result"] = res
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", *workload, *seed, *trace))
	if b, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fail(err)
		}
	}
	eb, _ := json.Marshal(env)
	fmt.Printf("envelope: %s\n", eb)
	if *trace == 0 {
		printMetrics(plain.latencyMetrics(), aliases[*workload])
	}
	printMetrics(res.Metrics, aliases[*workload])
	fmt.Printf("  %-40s %14.6g (%d of %d operations and checks failed)\n", "error_rate",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// outDir holds the result envelopes, the spans and durable-ingest's data
// directories, inside the checkout the benchmark runs from.
const outDir = ".bench_out"

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// envelope records the host and the run's parameters next to every
// result.
func envelope(cfg passConfig, commit string, trace int) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"params":     workloadParams[cfg.workload],
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// workloadParams are the fixed parameters of each workload, recorded in
// the envelope.
var workloadParams = map[string]map[string]any{
	"durable-ingest": {
		"profile": "clustered", "sessions": ingestSessions, "clusters_per_session": ingestClusters,
		"cluster_size": 6, "bridge_rate": 0.1, "facts_per_batch": ingestBatchFacts,
		"retract_lag_batches": ingestRetractLag, "solve_every": ingestSolveEvery,
		"checkpoint_every": ingestCheckpointEvery, "restarts": ingestRestarts,
		"flush_policy": "server default: WAL fsync before every acknowledged mutation",
	},
	"cold-resolve": {
		"profile": "wikidata", "scale": coldScale, "solvers": []string{"mln", "psl"},
		"solve_options": "defaults apart from Solver", "flush_policy": "none (no WAL)",
	},
}

// aliases name each workload's generic end-to-end metrics the way
// README.md describes them for that workload.
var aliases = map[string]map[string]string{
	"durable-ingest": {
		"primary_per_s": "ingest_facts_per_s", "secondary_mean_ms": "restart_mean_ms",
		"latency.primary_p50_ms": "ingest_p50_ms", "latency.primary_p99_ms": "ingest_p99_ms",
		"latency.secondary_p50_ms": "restart_p50_ms", "latency.secondary_p99_ms": "restart_max_ms",
	},
	"cold-resolve": {
		"primary_per_s": "mln_facts_per_s", "secondary_mean_ms": "cold_psl_mean_ms",
		"latency.primary_p50_ms": "cold_mln_p50_ms", "latency.primary_p99_ms": "cold_mln_max_ms",
		"latency.secondary_p50_ms": "cold_psl_p50_ms", "latency.secondary_p99_ms": "cold_psl_max_ms",
	},
}

func printMetrics(ms map[string]metric, alias map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		label := n
		if a, ok := alias[n]; ok {
			label = a + " (" + n + ")"
		}
		fmt.Printf("  %-40s %14.6g %s\n", label, ms[n].Value, ms[n].Unit)
	}
}

// finite maps the +Inf that failed requests contribute to percentiles
// onto the largest float JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}
