package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	tecore "repro"
	"repro/internal/server"
)

const (
	ingestSessions        = 2
	ingestClusters        = 8333
	ingestBatchFacts      = 16
	ingestRetractLag      = 256
	ingestSolveEvery      = 32
	ingestCheckpointEvery = 1024
	ingestRestarts        = 3
	// replayMaxBatches bounds the traced one-layer-down replay.
	replayMaxBatches = 8192
)

// ingestSession is one durable session and the client's model of it.
type ingestSession struct {
	id      string
	k       int // index of the session among the workload's sessions
	base    tecore.Graph
	noise   map[fkey]bool
	players int
	next    int // next batch index

	// State of the last acknowledged response and the last solve.
	facts         int
	epoch         uint64
	kept, removed int
}

// newFacts returns the statements batch b asserts: new spells at
// fresh clubs, after every generated spell, for players chosen so that
// no player holds two live new spells (the live window of
// ingestRetractLag batches asserts fewer facts than there are players).
// They violate no constraint, so store size and solve work stay flat.
func (s *ingestSession) newFacts(b int) []string {
	out := make([]string, ingestBatchFacts)
	for j := range out {
		n := b*ingestBatchFacts + j
		year := int64(2100 + (n/s.players)%50)
		q := tecore.NewQuad(fmt.Sprintf("player/%05d", n%s.players), "playsFor",
			fmt.Sprintf("club/new/%d/%d/%d", s.k, b, j), tecore.MustInterval(year, year+1),
			0.6+float64(n%97)/250)
		out[j] = q.String()
	}
	return out
}

// batch is the body of batch b.
func (s *ingestSession) batch(b int, solve bool) batchBody {
	body := batchBody{Add: strings.Join(s.newFacts(b), "\n")}
	if b >= ingestRetractLag {
		body.Remove = strings.Join(s.newFacts(b-ingestRetractLag), "\n")
	}
	if solve {
		body.Solve = componentSolve
	}
	return body
}

// graph is the model's current graph: the base dataset plus the live
// window of new spells.
func (s *ingestSession) graph() (tecore.Graph, error) {
	g := append(tecore.Graph(nil), s.base...)
	for b := s.next - ingestRetractLag; b < s.next; b++ {
		if b < 0 {
			continue
		}
		add, err := tecore.ParseGraphString(strings.Join(s.newFacts(b), "\n"))
		if err != nil {
			return nil, err
		}
		g = append(g, add...)
	}
	return g, nil
}

// solvedHeap is the live heap while a server holds solved sessions of
// the given number of facts.
type solvedHeap struct {
	bytes uint64
	facts int
}

// ingestState is the durable-ingest set-up.
type ingestState struct {
	dir      string
	srv      *server.Server
	ts       *httptest.Server
	c        *client
	sessions []*ingestSession
}

func (st *ingestState) stop() error {
	if st.ts == nil {
		return nil
	}
	st.c.close()
	st.ts.Close()
	err := st.srv.Close()
	st.srv, st.ts = nil, nil
	return err
}

// runDurableIngest streams batches of new facts into two durable
// sessions, one client each, with the server's own flush policy (an
// fsync per acknowledged mutation). Every 32nd batch also re-solves;
// client 0 checkpoints every 1024 of its batches. The run ends with a
// solve batch per session and a drop without checkpoint, followed by
// restarts that recover both sessions and solve them. Primary is the
// round trip of batches without a solve, primary_per_s acknowledged
// new facts per second, secondary the restart time.
func runDurableIngest(p *pass) error {
	root, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("durable-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, "server")

	var st *ingestState
	for i := 0; i < p.setupReps; i++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		err := p.setupOnce(func() error {
			var err error
			st, err = setupIngest(p.seed, dir)
			return err
		})
		if err != nil {
			return err
		}
	}
	defer st.stop()

	// The solved heap is measured on the freshly set-up server: after the
	// run, the stores also hold the tombstones of every retraction, whose
	// number follows the host's speed.
	atSetup := solvedHeap{bytes: settledHeap()}
	for _, s := range st.sessions {
		atSetup.facts += s.facts
	}

	start := p.beginTimed()
	deadline := start.Add(time.Duration(p.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	acked := make([]int, ingestSessions)
	for i, s := range st.sessions {
		wg.Add(1)
		go func(i int, s *ingestSession) {
			defer wg.Done()
			acked[i] = p.ingestClient(st, s, i == 0, deadline)
		}(i, s)
	}
	wg.Wait()
	elapsed := p.endTimed()
	p.primaryPerS = float64(ingestBatchFacts*(acked[0]+acked[1])) / elapsed.Seconds()

	// The run ends with a solve batch per session, then the server is
	// dropped without a final checkpoint.
	p.phase("restart")
	for _, s := range st.sessions {
		p.ingestBatch(st.c, s, true)
	}
	for _, s := range st.sessions {
		var info sessionInfo
		if err := st.c.do(http.MethodGet, "/api/sessions/"+s.id, nil, &info); err == nil && info.Memory != nil {
			p.setStoreBytes(info.Memory.BytesPerFact)
		}
	}
	if err := st.stop(); err != nil {
		p.check(false, "closing the server: %v", err)
	}
	if bytes, err := dirBytes(dir); err == nil && acked[0]+acked[1] > 0 {
		p.mu.Lock()
		p.layer["wal.disk_bytes_per_fact"] = float64(bytes) / float64(ingestBatchFacts*(acked[0]+acked[1]))
		p.mu.Unlock()
	}

	// The first restart measures the heap, before any recovered outcome
	// is held; the last reads the recovered outcomes.
	recovered := make([]*outcomeResp, len(st.sessions))
	for r := 0; r < ingestRestarts; r++ {
		var heap *solvedHeap
		if r == 0 {
			heap = &atSetup
		}
		if err := p.restart(dir, st.sessions, r == ingestRestarts-1, heap, recovered); err != nil {
			return err
		}
	}

	if p.tr != nil {
		p.phase("replay")
		if err := p.replay(filepath.Join(root, "replay"), st.sessions[0]); err != nil {
			return err
		}
	}

	p.phase("verify")
	graphs := make([]tecore.Graph, len(st.sessions))
	noise := make(map[fkey]bool)
	for i, s := range st.sessions {
		g, err := s.graph()
		if err != nil {
			return err
		}
		p.check(len(g) == s.facts, "session %s: model holds %d facts, server acknowledged %d", s.id, len(g), s.facts)
		graphs[i] = g
		for k := range s.noise {
			noise[k] = true
		}
	}
	srv := server.NewWithConfig(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	c := newClient(ts.URL, 1)
	defer func() {
		c.close()
		ts.Close()
	}()
	p.verifyOutcomes(srv, c, graphs, noise, func(i int) (*outcomeResp, error) {
		if recovered[i] == nil {
			return nil, fmt.Errorf("session %s: no recovered outcome", st.sessions[i].id)
		}
		return recovered[i], nil
	})
	return nil
}

func setupIngest(seed int64, dir string) (*ingestState, error) {
	srv := server.NewWithConfig(server.Config{DataDir: dir})
	ts := httptest.NewServer(srv.Handler())
	st := &ingestState{dir: dir, srv: srv, ts: ts, c: newClient(ts.URL, ingestSessions)}
	for k := 0; k < ingestSessions; k++ {
		ds := tecore.GenerateClustered(tecore.ClusteredConfig{
			Clusters: ingestClusters, ClusterSize: 6, BridgeRate: 0.1, Seed: derive(seed, int64(1+k))})
		var sb strings.Builder
		if err := tecore.WriteGraph(&sb, ds.Graph); err != nil {
			st.stop()
			return nil, err
		}
		var info sessionInfo
		if err := st.c.do(http.MethodPost, "/api/sessions", createBody{TQuads: sb.String(), Rules: tecore.ClusteredProgram}, &info); err != nil {
			st.stop()
			return nil, fmt.Errorf("creating session: %w", err)
		}
		if err := st.c.do(http.MethodPost, "/api/sessions/"+info.ID+"/solve", componentSolve, nil); err != nil {
			st.stop()
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
		s := &ingestSession{id: info.ID, k: k, base: ds.Graph, noise: make(map[fkey]bool),
			players: ingestClusters, facts: info.Facts, epoch: info.Epoch}
		for _, q := range ds.Graph {
			if ds.Noise[q.Fact()] {
				s.noise[keyOf(q)] = true
			}
		}
		st.sessions = append(st.sessions, s)
	}
	return st, nil
}

// ingestClient streams batches into one session until the deadline and
// returns the number acknowledged. The checkpointer calls
// Server.CheckpointAll synchronously every ingestCheckpointEvery of its
// batches, stalling the other client's session for its duration.
func (p *pass) ingestClient(st *ingestState, s *ingestSession, checkpointer bool, deadline time.Time) int {
	var primary []float64
	acked := 0
	for time.Now().Before(deadline) {
		solve := s.next%ingestSolveEvery == ingestSolveEvery-1
		lat, ok := p.ingestBatch(st.c, s, solve)
		if ok {
			acked++
		}
		if !solve {
			primary = append(primary, lat)
		}
		if checkpointer && s.next%ingestCheckpointEvery == 0 {
			t0 := time.Now()
			err := st.srv.CheckpointAll()
			t1 := time.Now()
			p.op(err == nil, "CheckpointAll: %v", err)
			p.tr.span("wal.checkpoint", 0, p.newReq(), t0, t1)
			p.sample("wal.checkpoint_ms", ms(t1.Sub(t0)))
		}
	}
	p.merge(primary, nil)
	return acked
}

// ingestBatch sends the session's next batch and returns its round
// trip in ms (+Inf when it failed) and whether it was acknowledged.
func (p *pass) ingestBatch(c *client, s *ingestSession, solve bool) (float64, bool) {
	b := s.next
	s.next++
	req := p.newReq()
	var out batchResp
	t0 := time.Now()
	err := c.do(http.MethodPost, "/api/sessions/"+s.id+"/batch", s.batch(b, solve), &out)
	t1 := time.Now()
	wantRemoved := 0
	if b >= ingestRetractLag {
		wantRemoved = ingestBatchFacts
	}
	if err == nil && (out.Added != ingestBatchFacts || out.Removed != wantRemoved || solve != (out.Solve != nil)) {
		err = fmt.Errorf("batch %d applied +%d/-%d, solved %v; want +%d/-%d, solved %v",
			b, out.Added, out.Removed, out.Solve != nil, ingestBatchFacts, wantRemoved, solve)
	}
	if err != nil {
		p.countFailure("POST batch", err)
		return inf, false
	}
	p.op(true, "")
	s.facts, s.epoch = out.Facts, out.Epoch
	lat := ms(t1.Sub(t0))
	span := p.tr.span("server.batch", 0, req, t0, t1)
	if solve {
		s.kept, s.removed = out.Solve.Stats.KeptFacts, out.Solve.Stats.RemovedFacts
		p.traceStages(out.Solve.Stats.stages(), "mln", span, req)
		p.sampleUpdate(&out.Solve.Stats, t1.Sub(t0))
		p.sample("core.catchup_solve_ms", lat)
	} else {
		p.sample("server.ingest_ms", lat)
	}
	return lat, true
}

// restart recovers the sessions on a fresh server and solves each
// once; the time until both solves are answered is a secondary sample.
// It checks the recovered state against the last acknowledged
// responses. With read it keeps the recovered outcomes in recovered;
// With atSetup it measures the heap the recovered server holds and,
// against the live heap at set-up, the solved heap.
func (p *pass) restart(dir string, sessions []*ingestSession, read bool, atSetup *solvedHeap, recovered []*outcomeResp) error {
	req := p.newReq()
	t0 := time.Now()
	srv := server.NewWithConfig(server.Config{DataDir: dir})
	n, err := srv.RecoverSessions()
	t1 := time.Now()
	p.tr.span("wal.recover", 0, req, t0, t1)
	p.sample("wal.recover_ms", ms(t1.Sub(t0)))
	if err != nil || n != len(sessions) {
		p.check(false, "recovering sessions: recovered %d of %d: %v", n, len(sessions), err)
		p.merge(nil, []float64{inf})
		srv.Close()
		return nil
	}
	ts := httptest.NewServer(srv.Handler())
	c := newClient(ts.URL, len(sessions))
	shutdown := func() {
		if srv == nil {
			return
		}
		c.close()
		ts.Close()
		if err := srv.Close(); err != nil {
			p.check(false, "closing the restarted server: %v", err)
		}
		srv, ts, c = nil, nil, nil
	}
	defer shutdown()

	solves := make([]solveResp, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *ingestSession) {
			defer wg.Done()
			s0 := time.Now()
			errs[i] = c.do(http.MethodPost, "/api/sessions/"+s.id+"/solve", componentSolve, &solves[i])
			s1 := time.Now()
			if errs[i] == nil {
				span := p.tr.span("server.solve", 0, req, s0, s1)
				p.traceStages(solves[i].Stats.stages(), "mln", span, req)
				p.sample("core.restart_solve_ms", ms(s1.Sub(s0)))
			}
		}(i, s)
	}
	wg.Wait()
	t2 := time.Now()
	failed := false
	for i, s := range sessions {
		if errs[i] != nil {
			p.countFailure("restart solve", errs[i])
			failed = true
			continue
		}
		p.op(true, "")
		var info sessionInfo
		err := c.do(http.MethodGet, "/api/sessions/"+s.id, nil, &info)
		p.check(err == nil && info.Facts == s.facts && info.Epoch == s.epoch,
			"session %s recovered %d facts at epoch %d, last acknowledged %d at %d (%v)", s.id, info.Facts, info.Epoch, s.facts, s.epoch, err)
		st := solves[i].Stats
		p.check(st.KeptFacts == s.kept && st.RemovedFacts == s.removed,
			"session %s: first solve after recovery kept %d removed %d, last solve before the drop kept %d removed %d",
			s.id, st.KeptFacts, st.RemovedFacts, s.kept, s.removed)
	}
	if failed {
		p.merge(nil, []float64{inf})
	} else {
		p.merge(nil, []float64{ms(t2.Sub(t0))})
	}
	if read {
		for i, s := range sessions {
			out, err := fullOutcome(srv, s.id)
			if err != nil {
				p.check(false, "reading the recovered outcome: %v", err)
			}
			recovered[i] = out
		}
	}
	if atSetup != nil {
		facts := 0
		for _, s := range sessions {
			facts += s.facts
		}
		with := settledHeap()
		shutdown()
		without := settledHeap()
		p.mu.Lock()
		p.layer["heap.recovered_bytes_per_fact"] = float64(int64(with)-int64(without)) / float64(facts)
		p.mu.Unlock()
		p.bytesPerFact = float64(int64(atSetup.bytes)-int64(without)) / float64(atSetup.facts)
	}
	return nil
}

// replay repeats one session's batch sequence one layer down, through
// the tecore Go API on its own directory, so the store, WAL and parse
// costs the HTTP handler hides get spans of their own.
func (p *pass) replay(dir string, s *ingestSession) error {
	sess, err := tecore.OpenSession(dir)
	if err != nil {
		return err
	}
	if _, err := sess.ApplyBatch(s.base, nil); err != nil {
		sess.Close()
		return err
	}
	if err := sess.Sync(); err != nil {
		sess.Close()
		return err
	}
	n := s.next
	if n > replayMaxBatches {
		n = replayMaxBatches
	}
	for b := 0; b < n; b++ {
		body := s.batch(b, false)
		req := p.newReq()
		t0 := time.Now()
		add, err := tecore.ParseGraphString(body.Add)
		if err != nil {
			sess.Close()
			return err
		}
		remove, err := tecore.ParseGraphString(body.Remove)
		if err != nil {
			sess.Close()
			return err
		}
		t1 := time.Now()
		_, err = sess.ApplyBatch(add, remove)
		t2 := time.Now()
		if err == nil {
			err = sess.Sync()
		}
		t3 := time.Now()
		p.op(err == nil, "replay batch %d: %v", b, err)
		p.tr.span("rdf.batch_parse", 0, req, t0, t1)
		p.tr.span("store.apply", 0, req, t1, t2)
		p.tr.span("wal.sync", 0, req, t2, t3)
		p.sample("rdf.batch_parse_us", us(t1.Sub(t0)))
		p.sample("store.apply_us", us(t2.Sub(t1)))
		p.sample("wal.sync_us", us(t3.Sub(t2)))
		// No checkpoint after the last batch: the reopen below must
		// replay a WAL suffix.
		if (b+1)%ingestCheckpointEvery == 0 && b+1 < n {
			t0 := time.Now()
			err := sess.Checkpoint()
			p.tr.span("wal.checkpoint", 0, p.newReq(), t0, time.Now())
			p.op(err == nil, "replay checkpoint: %v", err)
		}
	}
	facts := sess.Store().Len()
	if err := sess.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	reopened, err := tecore.OpenSession(dir)
	t1 := time.Now()
	if err != nil {
		p.check(false, "reopening the replayed session: %v", err)
		return nil
	}
	defer reopened.Close()
	p.tr.span("wal.open", 0, p.newReq(), t0, t1)
	p.check(reopened.Store().Len() == facts, "replayed session reopened with %d facts, closed with %d", reopened.Store().Len(), facts)
	if rs := reopened.RecoveryStats(); rs != nil {
		p.mu.Lock()
		p.layer["wal.replay_mb_per_s"] = float64(rs.ReplayedBytes) / 1e6 / t1.Sub(t0).Seconds()
		p.mu.Unlock()
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// verifyOutcomes checks each graph's outcome as the workload left it
// (read by outcome): it must be a valid resolution and equal a fresh
// session's cold MLN component solve on srv. A fresh PSL component
// solve of each graph is checked too. The noise F1 of each backend is
// pooled over the graphs.
func (p *pass) verifyOutcomes(srv *server.Server, c *client, graphs []tecore.Graph, noise map[fkey]bool, outcome func(i int) (*outcomeResp, error)) {
	var mln, psl f1Counts
	for i, g := range graphs {
		what := fmt.Sprintf("graph %d", i)
		got, err := outcome(i)
		if err != nil {
			p.check(false, "%s: reading the outcome: %v", what, err)
			continue
		}
		mln.add(p.checkListed(what+" outcome", g, noise, clusteredHard, got))
		fresh, err := p.solveFresh(srv, c, g, tecore.ClusteredProgram, "mln")
		if err != nil {
			p.check(false, "%s: %v", what, err)
			continue
		}
		okKept, dk := sameSet(got.Kept, fresh.Kept, identity)
		okRem, dr := sameSet(got.Removed, fresh.Removed, stripExplanation)
		p.check(okKept && okRem, "%s: outcome differs from a fresh cold solve: %d kept and %d removed statements differ (outcome %d/%d, fresh %d/%d)",
			what, dk, dr, len(got.Kept), len(got.Removed), len(fresh.Kept), len(fresh.Removed))
		pslOut, err := p.solveFresh(srv, c, g, tecore.ClusteredProgram, "psl")
		if err != nil {
			p.check(false, "%s: %v", what, err)
			continue
		}
		psl.add(p.checkListed(what+" fresh psl solve", g, noise, clusteredHard, pslOut))
	}
	p.mlnF1, p.pslF1 = mln.f1(), psl.f1()
}
