package core

import (
	"repro/internal/ground"
)

// GroundProfile runs one cold grounding pass (forward chaining plus
// program grounding) over the session's current store and program on a
// throwaway grounder, without touching the session's cached incremental
// engine, and returns the grounder's per-rule statistics together with
// the atom and clause counts of the resulting network.
func GroundProfile(s *Session, parallelism int) (*ground.GroundStats, int, int, error) {
	g := ground.New(s.st)
	g.Parallelism = parallelism
	if _, err := g.Close(s.prog); err != nil {
		return nil, 0, 0, err
	}
	cs, err := g.GroundProgram(s.prog)
	if err != nil {
		return nil, 0, 0, err
	}
	return g.TakeStats(), g.Atoms().Len(), cs.Len(), nil
}
