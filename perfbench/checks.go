package main

import (
	"fmt"
	"sort"
	"strings"

	tecore "repro"
)

// fkey identifies a temporal statement irrespective of confidence.
type fkey struct {
	s, p, o tecore.Term
	iv      tecore.Interval
}

func keyOf(q tecore.Quad) fkey { return fkey{q.Subject, q.Predicate, q.Object, q.Interval} }

// hardRules is an independent restatement of a program's hard
// constraints, used to check that a resolved graph satisfies them
// without trusting the solver's own bookkeeping.
type hardRules struct {
	// perSubject predicates allow one object per subject at a time:
	// facts with equal subject and different objects must have disjoint
	// intervals.
	perSubject []string
	// perObject predicates allow one subject per object at a time.
	perObject []string
	// minStart bounds a predicate's interval start from below.
	minStart map[string]int64
}

// wikidataHard restates tecore.WikidataProgram.
var wikidataHard = hardRules{
	perSubject: []string{"playsFor", "spouse", "educatedAt"},
	minStart:   map[string]int64{"memberOf": 1900},
}

// clusteredHard restates tecore.ClusteredProgram.
var clusteredHard = hardRules{
	perSubject: []string{"playsFor"},
	perObject:  []string{"playsFor"},
}

// violations lists (at most a few of) the hard-constraint violations
// among the facts.
func (h hardRules) violations(facts []tecore.Quad) []string {
	var out []string
	type entry struct {
		other tecore.Term
		q     tecore.Quad
	}
	pairwise := func(pred string, bySubject bool) {
		groups := make(map[tecore.Term][]entry)
		for _, q := range facts {
			if q.Predicate.Compact() != pred {
				continue
			}
			if bySubject {
				groups[q.Subject] = append(groups[q.Subject], entry{q.Object, q})
			} else {
				groups[q.Object] = append(groups[q.Object], entry{q.Subject, q})
			}
		}
		for _, es := range groups {
			sort.Slice(es, func(i, j int) bool { return es[i].q.Interval.Start < es[j].q.Interval.Start })
			for i := range es {
				for j := i + 1; j < len(es) && es[j].q.Interval.Start <= es[i].q.Interval.End; j++ {
					if es[i].other != es[j].other && len(out) < 5 {
						out = append(out, fmt.Sprintf("%s overlaps %s", es[i].q.Compact(), es[j].q.Compact()))
					}
				}
			}
		}
	}
	for _, pred := range h.perSubject {
		pairwise(pred, true)
	}
	for _, pred := range h.perObject {
		pairwise(pred, false)
	}
	for _, q := range facts {
		if min, ok := h.minStart[q.Predicate.Compact()]; ok && q.Interval.Start < min && len(out) < 5 {
			out = append(out, fmt.Sprintf("%s starts before %d", q.Compact(), min))
		}
	}
	return out
}

// f1Counts accumulates removed-versus-gold-noise counts.
type f1Counts struct{ tp, fp, fn int }

func (c *f1Counts) add(o f1Counts) { c.tp, c.fp, c.fn = c.tp+o.tp, c.fp+o.fp, c.fn+o.fn }

func (c f1Counts) f1() float64 {
	if 2*c.tp+c.fp+c.fn == 0 {
		return 0
	}
	return 2 * float64(c.tp) / float64(2*c.tp+c.fp+c.fn)
}

// checkOutcome checks a resolution of input: kept and removed
// partition the input statements (stray counts listed statements that
// are not in the input), kept violates no hard constraint, and nothing
// is inferred (the programs have no inference rules). It returns the
// counts of removed against the gold noise labels.
func (p *pass) checkOutcome(what string, input []tecore.Quad, noise map[fkey]bool, rules hardRules, kept, removed []tecore.Quad, stray, inferred int) f1Counts {
	in := make(map[fkey]bool, len(input))
	for _, q := range input {
		in[keyOf(q)] = true
	}
	seen := make(map[fkey]bool, len(in))
	dup := 0
	for _, list := range [][]tecore.Quad{kept, removed} {
		for _, q := range list {
			k := keyOf(q)
			switch {
			case !in[k]:
				stray++
			case seen[k]:
				dup++
			}
			seen[k] = true
		}
	}
	p.check(stray == 0 && dup == 0 && len(seen) == len(in),
		"%s: kept (%d) and removed (%d) do not partition the %d input statements (%d stray, %d duplicated)",
		what, len(kept), len(removed), len(in), stray, dup)
	p.check(inferred == 0, "%s: %d facts inferred by a program without inference rules", what, inferred)
	v := rules.violations(kept)
	p.check(len(v) == 0, "%s: kept facts violate hard constraints: %s", what, strings.Join(v, "; "))

	var c f1Counts
	for _, q := range removed {
		if noise[keyOf(q)] {
			c.tp++
		} else {
			c.fp++
		}
	}
	for k := range in {
		if noise[k] {
			c.fn++
		}
	}
	c.fn -= c.tp
	return c
}

// checkResolution is checkOutcome for a resolution returned by the Go
// API.
func (p *pass) checkResolution(what string, input []tecore.Quad, noise map[fkey]bool, rules hardRules, res *tecore.Resolution) f1Counts {
	quads := func(fs []tecore.Fact) []tecore.Quad {
		out := make([]tecore.Quad, len(fs))
		for i, f := range fs {
			out[i] = f.Quad
		}
		return out
	}
	return p.checkOutcome(what, input, noise, rules, quads(res.Kept), quads(res.Removed), 0, len(res.Inferred))
}

// checkListed is checkOutcome for an outcome read over HTTP, whose
// facts are listed in the server's compact notation: each is mapped
// back to the input statement it renders.
func (p *pass) checkListed(what string, input []tecore.Quad, noise map[fkey]bool, rules hardRules, out *outcomeResp) f1Counts {
	byText := make(map[string]tecore.Quad, len(input))
	for _, q := range input {
		byText[q.Compact()] = q
	}
	stray := 0
	quads := func(list []string) []tecore.Quad {
		out := make([]tecore.Quad, 0, len(list))
		for _, s := range list {
			if q, ok := byText[stripExplanation(s)]; ok {
				out = append(out, q)
			} else {
				stray++
			}
		}
		return out
	}
	return p.checkOutcome(what, input, noise, rules, quads(out.Kept), quads(out.Removed), stray, out.Stats.InferredFacts)
}

// stripExplanation drops the " — violates ..." annotation the server
// appends to removed facts.
func stripExplanation(s string) string {
	if i := strings.Index(s, " — violates "); i >= 0 {
		return s[:i]
	}
	return s
}

// sameSet reports whether two fact lists hold the same statements, and
// how many differ.
func sameSet(a, b []string, norm func(string) string) (bool, int) {
	count := make(map[string]int, len(a))
	for _, s := range a {
		count[norm(s)]++
	}
	for _, s := range b {
		count[norm(s)]--
	}
	diff := 0
	for _, n := range count {
		if n != 0 {
			diff++
		}
	}
	return diff == 0, diff
}

func identity(s string) string { return s }
