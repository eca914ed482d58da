package core

import (
	"context"
	"fmt"

	"dnscde/internal/dnswire"
)

// This file implements the paper's declared future work (§IV-A: "A
// comprehensive study of cache selection algorithms is outside the scope
// of this study and we propose it as one of the interesting followup
// topics"): classifying a platform's cache-selection strategy from the
// outside, using only the CDE side channels.
//
// The classifier combines three observations:
//
//  1. ω_distinct — enumeration with distinct names (names hierarchy)
//     counts the caches reachable from this vantage point.
//  2. ω_identical — enumeration with one repeated name counts the caches
//     a *single key* reaches: 1 under key-dependent selection, all n
//     otherwise.
//  3. arrival order — under traffic-dependent (round-robin) selection the
//     first n identical probes each hit a fresh cache, so the nameserver
//     arrivals occupy exactly the first n probe slots; under
//     unpredictable selection the last fresh arrival lands around n·H_n.
//
// A single vantage point cannot distinguish a hash-by-source-IP platform
// from a single cache; supplying extra vantage probers (the ad-network
// situation) resolves that case.

// SelectionClass is the classifier's verdict.
type SelectionClass string

// Selection classes. They extend loadbal.Category with the observational
// corner cases.
const (
	// ClassSingleCache: one cache visible from every supplied vantage;
	// the selector is unobservable.
	ClassSingleCache SelectionClass = "single-cache"
	// ClassTrafficDependent: multiple caches, identical queries reach
	// all of them, arrivals sequential (round-robin-like).
	ClassTrafficDependent SelectionClass = "traffic-dependent"
	// ClassUnpredictable: multiple caches, identical queries reach all
	// of them, arrivals scattered (random-like).
	ClassUnpredictable SelectionClass = "unpredictable"
	// ClassKeyDependent: distinct names (or distinct sources) reach more
	// caches than a single repeated key does.
	ClassKeyDependent SelectionClass = "key-dependent"
)

// ClassifyOptions tunes the classifier.
type ClassifyOptions struct {
	// Queries is the per-phase probe budget; zero defaults to
	// RecommendedQueries(8, 0.99).
	Queries int
	// ExtraVantages are probers from different source addresses,
	// used to expose hash-by-source-IP platforms that look single-cache
	// from one vantage. Optional.
	ExtraVantages []Prober
}

func (o ClassifyOptions) withDefaults() ClassifyOptions {
	if o.Queries == 0 {
		o.Queries = RecommendedQueries(8, 0.99)
	}
	return o
}

// classifyRepetitions is the minimum number of arrival-order tests. With
// r repetitions the probability that uniform-random selection passes
// every sequential test is (n!/nⁿ)^r.
const classifyRepetitions = 3

// ClassifyResult is the classifier's output.
type ClassifyResult struct {
	Class SelectionClass
	// Caches is the distinct-name cache count (per vantage union).
	Caches int
	// IdenticalKeyCaches is the identical-query count.
	IdenticalKeyCaches int
	// SequentialRuns of Runs arrival-order tests looked round-robin.
	SequentialRuns, Runs int
	ProbesSent           int
}

// ClassifySelection determines the target platform's cache-selection
// strategy. It needs a direct prober (identical queries must reach the
// platform unimpeded by local caches).
func ClassifySelection(ctx context.Context, p Prober, in *Infra, opts ClassifyOptions) (ClassifyResult, error) {
	opts = opts.withDefaults()
	if !p.Direct() {
		return ClassifyResult{}, fmt.Errorf("core: classification needs a direct prober")
	}
	var result ClassifyResult

	// Phase 1: distinct-name enumeration from the primary vantage, plus
	// any extra vantages (union counted at the nameserver).
	session, err := in.NewHierarchySession(opts.Queries)
	if err != nil {
		return result, err
	}
	vantages := append([]Prober{p}, opts.ExtraVantages...)
	for i := 1; i <= opts.Queries; i++ {
		result.ProbesSent++
		_, _ = vantages[(i-1)%len(vantages)].Probe(ctx, session.ProbeName(i), dnswire.TypeA)
	}
	result.Caches = session.ObservedCaches()

	// Phase 2: identical-query enumeration.
	ident, err := EnumerateDirect(ctx, p, in, EnumOptions{Queries: opts.Queries})
	if err != nil {
		return result, err
	}
	result.ProbesSent += ident.ProbesSent
	result.IdenticalKeyCaches = ident.Caches

	switch {
	case result.Caches <= 1:
		result.Class = ClassSingleCache
		return result, nil
	case ident.Caches < result.Caches:
		// Distinct keys (names or sources) reach more caches than one
		// repeated key: the load balancer keys on the query.
		result.Class = ClassKeyDependent
		return result, nil
	}

	// Phase 3: arrival-order test — does every one of the first n
	// identical probes hit a fresh cache? Uniform-random selection passes
	// one run with probability n!/nⁿ, so for small n more repetitions are
	// needed to push the misclassification rate below ~2%.
	n := result.Caches
	reps := classifyRepetitions
	pSeq := sequentialChance(n)
	for conf := pow(pSeq, reps); conf > 0.02 && reps < 16; conf = pow(pSeq, reps) {
		reps++
	}
	for r := 0; r < reps; r++ {
		fs, err := in.NewFlatSession()
		if err != nil {
			return result, err
		}
		// A run is sequential when n *successful* probes suffice to cover
		// all n caches. Probe errors (client-side packet loss) are
		// retried transparently: the platform may or may not have handled
		// a lost probe, so only delivered probes count against the n
		// budget, and coverage is read from the nameserver log.
		covered, successes, attempts := 0, 0, 0
		for covered < n && successes < n && attempts < 20*n {
			attempts++
			result.ProbesSent++
			if _, err := p.Probe(ctx, fs.Honey, dnswire.TypeA); err != nil {
				continue
			}
			successes++
			covered = fs.ObservedCaches()
		}
		result.Runs++
		if covered >= n {
			result.SequentialRuns++
		}
	}
	if result.SequentialRuns == result.Runs {
		result.Class = ClassTrafficDependent
	} else {
		result.Class = ClassUnpredictable
	}
	return result, nil
}

// sequentialChance returns n!/nⁿ — the probability that n uniform draws
// over n caches happen to touch each cache exactly once.
func sequentialChance(n int) float64 {
	p := 1.0
	for i := 1; i <= n; i++ {
		p *= float64(i) / float64(n)
	}
	return p
}

// pow is a small integer power for probabilities.
func pow(base float64, exp int) float64 {
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
