package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	tecore "repro"
	"repro/internal/server"
)

const coldScale = 0.05

// runColdResolve is the batch user's path, the paper's own experiment:
// a Wikidata-profile graph as TQuads text is parsed, loaded and solved
// through the tecore Go API with default options, once with MLN and
// twice with PSL per pass, each time in a fresh session. Primary is the
// MLN resolve, secondary the PSL resolve; primary_per_s is input facts
// resolved by MLN per second.
func runColdResolve(p *pass) error {
	var ds *tecore.Dataset
	var text string
	for i := 0; i < p.setupReps; i++ {
		ds, text = nil, ""
		err := p.setupOnce(func() error {
			ds = tecore.GenerateWikidata(tecore.WikidataConfig{Scale: coldScale, Seed: derive(p.seed, 1)})
			var sb strings.Builder
			if err := tecore.WriteGraph(&sb, ds.Graph); err != nil {
				return err
			}
			text = sb.String()
			return nil
		})
		if err != nil {
			return err
		}
	}
	noise := make(map[fkey]bool, len(ds.Noise))
	for _, q := range ds.Graph {
		if ds.Noise[q.Fact()] {
			noise[keyOf(q)] = true
		}
	}

	// A PSL resolve takes about half as long as an MLN one, so a pass
	// runs PSL twice: each backend then gets about half of the timed
	// phase, and its average is about as steady as the other's.
	solvers := []struct {
		name   string
		solver tecore.Solver
		f1     *float64
	}{{"mln", tecore.SolverMLN, &p.mlnF1}, {"psl", tecore.SolverPSL, &p.pslF1}, {"psl", tecore.SolverPSL, &p.pslF1}}
	first := map[string]f1Counts{}
	var mlnTime time.Duration
	facts := 0
	start := p.beginTimed()
	deadline := start.Add(time.Duration(p.seconds * float64(time.Second)))
	// The first pass always completes; after it, resolves go on until the
	// deadline.
	for k := 0; k < len(solvers) || time.Now().Before(deadline); k++ {
		sv := solvers[k%len(solvers)]
		what := fmt.Sprintf("cold-resolve %s, resolve %d of pass %d", sv.name, k%len(solvers), k/len(solvers))
		res, input, d, release, err := p.coldResolveOnce(text, sv.name, sv.solver)
		lat := ms(d)
		if err != nil {
			p.op(false, "%s: %v", what, err)
			lat = inf
		} else {
			p.op(true, "")
		}
		if sv.name == "mln" {
			p.merge([]float64{lat}, nil)
		} else {
			p.merge(nil, []float64{lat})
		}
		if err != nil {
			continue
		}
		if sv.name == "mln" {
			mlnTime += d
			facts += len(input)
		}
		c := p.checkResolution(what, input, noise, wikidataHard, res)
		if prev, ok := first[sv.name]; ok {
			p.check(prev == c, "%s: removed set differs from the first %s resolve (%+v vs %+v)", what, sv.name, c, prev)
			continue
		}
		first[sv.name] = c
		*sv.f1 = c.f1()
		if sv.name == "mln" {
			// Solved heap: the difference the live session makes,
			// with the harness's own data (text, input) live both
			// times.
			n := res.Stats.TotalFacts
			with := settledHeap()
			res = nil
			release()
			p.bytesPerFact = float64(int64(with)-int64(settledHeap())) / float64(n)
			runtime.KeepAlive(input)
		}
	}
	p.endTimed()
	if mlnTime > 0 {
		p.primaryPerS = float64(facts) / mlnTime.Seconds()
	}
	return nil
}

// coldResolveOnce parses, loads and solves text in a fresh session. It
// returns the resolution, the parsed input, the time taken, and a
// function that drops its own references to the solved session.
func (p *pass) coldResolveOnce(text, name string, solver tecore.Solver) (*tecore.Resolution, tecore.Graph, time.Duration, func(), error) {
	req := p.newReq()
	start := time.Now()
	g, err := tecore.ParseGraph(strings.NewReader(text))
	if err != nil {
		return nil, nil, 0, nil, err
	}
	parsed := time.Now()
	s := tecore.NewSession()
	if err := s.LoadGraph(g); err != nil {
		return nil, nil, 0, nil, err
	}
	loaded := time.Now()
	if err := s.LoadProgramText(tecore.WikidataProgram); err != nil {
		return nil, nil, 0, nil, err
	}
	solveStart := time.Now()
	res, err := s.Solve(tecore.SolveOptions{Solver: solver})
	end := time.Now()
	if err != nil {
		return nil, nil, 0, nil, err
	}
	root := p.tr.span("core.resolve", 0, req, start, end)
	p.tr.span("rdf.parse", root, req, start, parsed)
	p.tr.span("store.load", root, req, parsed, loaded)
	p.sample("rdf.parse_ms", ms(parsed.Sub(start)))
	p.sample("store.load_ms", ms(loaded.Sub(parsed)))
	st, err := statsOf(res.Stats)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	p.recordColdStats(name, &st, root, req, solveStart, end)
	p.setStoreBytes(s.Store().MemoryStats().BytesPerFact)
	release := func() { s, res = nil, nil }
	return res, g, end.Sub(start), release, nil
}

// recordColdStats records a cold solve that ran from start to end: its
// span, its program-reported stages and the cold per-layer samples.
func (p *pass) recordColdStats(name string, st *solveStats, parent, req int64, start, end time.Time) {
	span := p.tr.span("core.solve", parent, req, start, end)
	sg := st.stages()
	p.traceStages(sg, name, span, req)
	p.sample("ground.cold_"+name+"_ms", ms(sg.ground))
	p.sample(name+".cold_ms", ms(sg.solve))
	p.sample("repair.cold_"+name+"_ms", ms(sg.repair+sg.outcome))
	if name == "mln" {
		p.mu.Lock()
		p.layer["ground.groundings"] = float64(st.groundings())
		p.mu.Unlock()
	}
}

func (p *pass) setStoreBytes(v float64) {
	p.mu.Lock()
	p.layer["store.bytes_per_fact"] = v
	p.mu.Unlock()
}

// solveFresh creates an in-memory session of g on srv, runs one cold
// component solve with the given solver, reads the full outcome and
// deletes the session. The solve is recorded as a cold solve.
func (p *pass) solveFresh(srv *server.Server, c *client, g tecore.Graph, program, solver string) (*outcomeResp, error) {
	var sb strings.Builder
	if err := tecore.WriteGraph(&sb, g); err != nil {
		return nil, err
	}
	var info sessionInfo
	if err := c.do(http.MethodPost, "/api/sessions", createBody{TQuads: sb.String(), Rules: program}, &info); err != nil {
		return nil, fmt.Errorf("creating a fresh session: %w", err)
	}
	defer c.do(http.MethodDelete, "/api/sessions/"+info.ID, nil, nil)
	req := p.newReq()
	var out solveResp
	start := time.Now()
	if err := c.do(http.MethodPost, "/api/sessions/"+info.ID+"/solve", &solveBody{Solver: solver, ComponentSolve: true}, &out); err != nil {
		return nil, fmt.Errorf("fresh %s solve: %w", solver, err)
	}
	p.recordColdStats(solver, &out.Stats, 0, req, start, time.Now())
	return fullOutcome(srv, info.ID)
}
