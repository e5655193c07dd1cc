package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// passConfig holds the command-line settings of one pass.
type passConfig struct {
	workload  string
	seed      int64
	seconds   float64
	setupReps int
}

// pass accumulates one run of a workload: operation counts, the
// end-to-end samples, the per-layer samples and, when traced, the
// spans. Client goroutines report through its methods, which lock.
type pass struct {
	passConfig
	tr  *tracer // nil on the untraced pass
	req atomic.Int64

	mu        sync.Mutex
	attempted int
	failed    int
	rejected  int
	problems  []string

	setup        []float64 // seconds per set-up
	primary      []float64 // ms per primary operation, +Inf when it failed
	secondary    []float64 // ms per secondary operation, +Inf when it failed
	primaryPerS  float64
	mlnF1        float64
	pslF1        float64
	bytesPerFact float64

	// series are per-layer samples, summarised into quantiles by
	// layerMetrics; layer holds per-layer values set directly.
	series map[string][]float64
	layer  map[string]float64

	begun      time.Time
	timedStart time.Time
	gcStart    runtime.MemStats
	gcEnd      runtime.MemStats
	pauseStart *metrics.Float64Histogram
	pauseEnd   *metrics.Float64Histogram
	peakHeap   atomic.Uint64 // since the timed phase began
	peakTimed  uint64        // peakHeap at the end of the timed phase
	stopSample chan struct{}
	sampled    sync.WaitGroup
}

func newPass(cfg passConfig, traced bool) *pass {
	p := &pass{
		passConfig: cfg,
		series:     make(map[string][]float64),
		layer:      make(map[string]float64),
		stopSample: make(chan struct{}),
		begun:      time.Now(),
	}
	if traced {
		p.tr = newTracer()
	}
	p.sampled.Add(1)
	go p.sampleHeap()
	return p
}

// sampleHeap tracks the peak of live heap objects until finish; the
// timed phase resets it.
func (p *pass) sampleHeap() {
	defer p.sampled.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > p.peakHeap.Load() {
			p.peakHeap.Store(v)
		}
		select {
		case <-p.stopSample:
			return
		case <-tick.C:
		}
	}
}

// finish stops the heap sampler.
func (p *pass) finish() {
	close(p.stopSample)
	p.sampled.Wait()
}

// phase starts a phase of the pass: it names the phase of the spans
// that follow and reports the pass's progress on standard error.
func (p *pass) phase(name string) {
	p.tr.setPhase(name)
	fmt.Fprintf(os.Stderr, "perfbench: %s at %.1fs\n", name, time.Since(p.begun).Seconds())
}

// newReq returns a fresh request id for spans.
func (p *pass) newReq() int64 { return p.req.Add(1) }

// op counts one attempted operation; a failed one is reported on
// standard error (the first few only).
func (p *pass) op(ok bool, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if !ok {
		p.failed++
		p.note(format, args...)
	}
}

// check counts an output check as an operation. A failed check fails
// the run.
func (p *pass) check(ok bool, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if !ok {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (p *pass) note(format string, args ...any) {
	if p.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// reject counts an HTTP 429.
func (p *pass) reject() {
	p.mu.Lock()
	p.rejected++
	p.mu.Unlock()
}

// sample appends per-layer samples to a series.
func (p *pass) sample(series string, vs ...float64) {
	p.mu.Lock()
	p.series[series] = append(p.series[series], vs...)
	p.mu.Unlock()
}

// merge folds one client's latencies into the pass.
func (p *pass) merge(primary, secondary []float64) {
	p.mu.Lock()
	p.primary = append(p.primary, primary...)
	p.secondary = append(p.secondary, secondary...)
	p.mu.Unlock()
}

// setupOnce times one set-up.
func (p *pass) setupOnce(f func() error) error {
	p.phase("setup")
	runtime.GC()
	start := time.Now()
	if err := f(); err != nil {
		return err
	}
	p.setup = append(p.setup, time.Since(start).Seconds())
	return nil
}

const pauseMetric = "/sched/pauses/total/gc:seconds"

func readPauses() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: pauseMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// beginTimed marks the start of the timed phase.
func (p *pass) beginTimed() time.Time {
	p.phase("timed")
	runtime.GC()
	runtime.ReadMemStats(&p.gcStart)
	p.pauseStart = readPauses()
	p.peakHeap.Store(0)
	p.timedStart = time.Now()
	return p.timedStart
}

// endTimed marks the end of the timed phase and records its GC pauses
// as spans.
func (p *pass) endTimed() time.Duration {
	elapsed := time.Since(p.timedStart)
	runtime.ReadMemStats(&p.gcEnd)
	p.pauseEnd = readPauses()
	p.peakTimed = p.peakHeap.Load()
	p.tr.gcPauses(&p.gcStart, &p.gcEnd)
	p.phase("after")
	return elapsed
}

// heapAfterGC returns the bytes of live heap objects after a full GC.
func heapAfterGC() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// settledHeap returns the live heap once releases that finish
// asynchronously — connection goroutines of a closed server, a deleted
// session's background close — have finished: it repeats full GCs
// until the live heap stops shrinking.
func settledHeap() uint64 {
	prev := heapAfterGC()
	for i := 0; i < 10; i++ {
		time.Sleep(50 * time.Millisecond)
		cur := heapAfterGC()
		if cur+cur/100 >= prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// percentile is the nearest-rank q-th percentile (0 < q <= 100) of vs;
// +Inf samples (failed operations) sort last. 0 when vs is empty.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vs []float64) float64 { return percentile(vs, 50) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// mean is the arithmetic mean of vs (+Inf if any sample failed); 0
// when vs is empty.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// e2eMetrics are the end-to-end metrics. Operation times enter them as
// averages over the run — primary_per_s and secondary_mean_ms — not as
// medians: the shared hosts the benchmark runs on switch between a fast
// and a slow speed every few seconds, and the median of such a
// two-speed mixture jumps between the two speeds as their shares change
// from run to run, while an average moves only in proportion.
func (p *pass) e2eMetrics() map[string]metric {
	v := map[string]float64{
		"setup_s":               median(p.setup),
		"primary_per_s":         p.primaryPerS,
		"secondary_mean_ms":     mean(p.secondary),
		"mln_noise_f1":          p.mlnF1,
		"psl_noise_f1":          p.pslF1,
		"solved_bytes_per_fact": p.bytesPerFact,
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{Value: finite(v[m.name]), Unit: m.unit}
	}
	return out
}

// latencyMetrics are the median and p99 latencies of the primary and
// secondary operations. They are reported, not gated.
func (p *pass) latencyMetrics() map[string]metric {
	return map[string]metric{
		"latency.primary_p50_ms":   {Value: finite(percentile(p.primary, 50)), Unit: "ms"},
		"latency.primary_p99_ms":   {Value: finite(percentile(p.primary, 99)), Unit: "ms"},
		"latency.secondary_p50_ms": {Value: finite(percentile(p.secondary, 50)), Unit: "ms"},
		"latency.secondary_p99_ms": {Value: finite(percentile(p.secondary, 99)), Unit: "ms"},
	}
}

// perLayer lists the per-layer metrics every traced run reports, with
// their units. A metric of a layer the workload does not exercise
// reads 0; README.md says which workload each one belongs to.
var perLayer = []struct{ name, unit string }{
	{"server.update_overhead_p50_ms", "ms"},
	{"server.update_overhead_p99_ms", "ms"},
	{"server.ingest_overhead_p50_ms", "ms"},
	{"server.rejected", "count"},
	{"rdf.parse_ms", "ms"},
	{"rdf.batch_parse_p50_us", "us"},
	{"store.load_ms", "ms"},
	{"store.apply_p50_us", "us"},
	{"store.bytes_per_fact", "B/fact"},
	{"ground.cold_mln_ms", "ms"},
	{"ground.cold_psl_ms", "ms"},
	{"ground.groundings", "count"},
	{"ground.update_p50_us", "us"},
	{"engine.plan_sync_p50_us", "us"},
	{"engine.solved_per_update", "ratio"},
	{"mln.cold_ms", "ms"},
	{"mln.update_p50_us", "us"},
	{"maxsat.fallbacks", "count"},
	{"psl.cold_ms", "ms"},
	{"repair.cold_mln_ms", "ms"},
	{"repair.cold_psl_ms", "ms"},
	{"repair.update_p50_us", "us"},
	{"repair.outcome_update_p50_us", "us"},
	{"core.catchup_solve_p50_ms", "ms"},
	{"core.restart_solve_ms", "ms"},
	{"wal.sync_p50_us", "us"},
	{"wal.disk_bytes_per_fact", "B/fact"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.recover_ms", "ms"},
	{"wal.replay_mb_per_s", "MB/s"},
	{"gc.cycles", "count"},
	{"gc.pause_total_ms", "ms"},
	{"gc.pause_p99_ms", "ms"},
	{"heap.peak_mb", "MB"},
	{"heap.recovered_bytes_per_fact", "B/fact"},
}

// selfLayers are the layers whose self time the traced run reports as
// <layer>.self_ms.
var selfLayers = []string{"server", "core", "rdf", "store", "ground", "engine", "mln", "psl", "repair", "wal", "gc"}

func (p *pass) layerMetrics() map[string]metric {
	q := func(series string, pct float64) float64 { return percentile(p.series[series], pct) }
	v := map[string]float64{
		"server.update_overhead_p50_ms": q("server.update_overhead_ms", 50),
		"server.update_overhead_p99_ms": q("server.update_overhead_ms", 99),
		"server.rejected":               float64(p.rejected),
		"rdf.parse_ms":                  q("rdf.parse_ms", 50),
		"rdf.batch_parse_p50_us":        q("rdf.batch_parse_us", 50),
		"store.load_ms":                 q("store.load_ms", 50),
		"store.apply_p50_us":            q("store.apply_us", 50),
		"ground.cold_mln_ms":            q("ground.cold_mln_ms", 50),
		"ground.cold_psl_ms":            q("ground.cold_psl_ms", 50),
		"ground.update_p50_us":          q("ground.update_us", 50),
		"engine.plan_sync_p50_us":       q("engine.plan_sync_us", 50),
		"mln.cold_ms":                   q("mln.cold_ms", 50),
		"mln.update_p50_us":             q("mln.update_us", 50),
		"psl.cold_ms":                   q("psl.cold_ms", 50),
		"repair.cold_mln_ms":            q("repair.cold_mln_ms", 50),
		"repair.cold_psl_ms":            q("repair.cold_psl_ms", 50),
		"repair.update_p50_us":          q("repair.update_us", 50),
		"repair.outcome_update_p50_us":  q("repair.outcome_update_us", 50),
		"core.catchup_solve_p50_ms":     q("core.catchup_solve_ms", 50),
		"core.restart_solve_ms":         q("core.restart_solve_ms", 50),
		"wal.sync_p50_us":               q("wal.sync_us", 50),
		"wal.checkpoint_ms":             q("wal.checkpoint_ms", 50),
		"wal.recover_ms":                q("wal.recover_ms", 50),
		"gc.cycles":                     float64(p.gcEnd.NumGC - p.gcStart.NumGC),
		"gc.pause_total_ms":             float64(p.gcEnd.PauseTotalNs-p.gcStart.PauseTotalNs) / 1e6,
		"gc.pause_p99_ms":               pauseP99(p.pauseStart, p.pauseEnd) * 1e3,
		"heap.peak_mb":                  float64(p.peakTimed) / (1 << 20),
	}
	if solved := p.series["engine.solved"]; len(solved) > 0 {
		sum := 0.0
		for _, s := range solved {
			sum += s
		}
		v["engine.solved_per_update"] = sum / float64(len(solved))
	}
	if ingest := p.series["server.ingest_ms"]; len(ingest) > 0 {
		v["server.ingest_overhead_p50_ms"] = median(ingest) -
			(q("rdf.batch_parse_us", 50)+q("store.apply_us", 50)+q("wal.sync_us", 50))/1e3
	}
	for name, x := range p.layer {
		v[name] = x
	}
	out := make(map[string]metric, len(perLayer)+len(selfLayers))
	for _, m := range perLayer {
		out[m.name] = metric{Value: finite(v[m.name]), Unit: m.unit}
	}
	for name, m := range p.latencyMetrics() {
		out[name] = m
	}
	self := p.tr.selfTimes()
	for _, l := range selfLayers {
		out[l+".self_ms"] = metric{Value: ms(self[l]), Unit: "ms"}
	}
	return out
}

// pauseP99 is the 99th percentile of the GC pauses between two reads
// of the pause histogram, taken as the upper bound of its bucket.
func pauseP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

func (p *pass) result(ms map[string]metric) result {
	p.mu.Lock()
	defer p.mu.Unlock()
	return result{Correct: len(p.problems) == 0, Attempted: p.attempted, Failed: p.failed, Metrics: ms}
}

// report is the pass's record for the result file: failures, sample
// counts and the raw set-up times and primary and secondary latencies.
func (p *pass) report() map[string]any {
	p.mu.Lock()
	defer p.mu.Unlock()
	counts := map[string]int{"primary": len(p.primary), "secondary": len(p.secondary), "setup": len(p.setup)}
	for s, vs := range p.series {
		counts[s] = len(vs)
	}
	finiteAll := func(vs []float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = finite(v)
		}
		return out
	}
	return map[string]any{
		"attempted": p.attempted, "failed": p.failed, "rejected": p.rejected,
		"problems": p.problems, "samples": counts, "setup_s": p.setup,
		"primary_ms": finiteAll(p.primary), "secondary_ms": finiteAll(p.secondary),
	}
}

var inf = math.Inf(1)

// derive turns the run's seed into the k-th independent, non-zero
// generator seed.
func derive(seed int64, k int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x>>1) | 1
}
