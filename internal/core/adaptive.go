package core

import (
	"context"
	"fmt"
	"net/netip"

	"dnscde/internal/authns"
	"dnscde/internal/dnswire"
)

// This file implements the adaptive probing loops a field measurement
// needs: the cache count n is unknown in advance, so probe budgets are
// grown until the observation stabilises — the practical realisation of
// §V-B's "a prerequisite is that N ... is larger than n".

// Adaptive enumeration budgets: the first round's probe count and the
// cap on the total number of probes.
const (
	adaptiveInitialBudget = 16
	adaptiveMaxBudget     = 4096
)

// AdaptiveOptions tunes adaptive enumeration.
type AdaptiveOptions struct {
	// Replicates is the carpet-bombing factor per probe; zero defaults
	// to 1.
	Replicates int
}

// AdaptiveResult is the outcome of an adaptive enumeration.
type AdaptiveResult struct {
	Technique Technique
	// Caches is the stabilised measurement.
	Caches int
	// Rounds is how many doubling rounds ran.
	Rounds      int
	ProbesSent  int
	ProbeErrors int
	// Converged reports whether the doubling rule was satisfied before
	// the probe cap was exhausted.
	Converged bool
}

// EnumerateAdaptive measures the cache count without prior knowledge of
// n: it runs enumeration sessions with doubling probe budgets until the
// measured count ω is at most a quarter of the budget (so a further cache
// would very likely have been sampled), or the budget cap is reached.
//
// Each round uses a fresh session, so rounds are independent
// measurements; the final round's count is reported.
func EnumerateAdaptive(ctx context.Context, p Prober, in *Infra, opts AdaptiveOptions) (AdaptiveResult, error) {
	result := AdaptiveResult{}
	budget := adaptiveInitialBudget
	for {
		result.Rounds++
		enumOpts := EnumOptions{Queries: budget, Replicates: opts.Replicates}
		var (
			res EnumResult
			err error
		)
		if p.Direct() {
			res = EnumResult{}
			res, err = EnumerateDirect(ctx, p, in, enumOpts)
		} else {
			res, err = EnumerateHierarchy(ctx, p, in, enumOpts)
		}
		result.ProbesSent += res.ProbesSent
		result.ProbeErrors += res.ProbeErrors
		if err != nil {
			return result, fmt.Errorf("core: adaptive round %d: %w", result.Rounds, err)
		}
		result.Technique = res.Technique
		result.Caches = res.Caches

		// Stop when the round's budget would have exposed an (ω+1)-th
		// cache with 99% probability — i.e. the budget meets the coupon-
		// collector bound for one more cache than we saw.
		if budget >= RecommendedQueries(res.Caches+1, 0.99) {
			result.Converged = true
			return result, nil
		}
		if result.ProbesSent+budget*2 > adaptiveMaxBudget {
			return result, nil
		}
		budget *= 2
	}
}

// DiscoverEgressAdaptive discovers egress IPs without a preset probe
// count: it keeps probing fresh names until no new egress address has
// appeared for `window` consecutive probes, or maxProbes is reached.
func DiscoverEgressAdaptive(ctx context.Context, p Prober, in *Infra, window, maxProbes int) (EgressResult, error) {
	if window <= 0 {
		window = 24
	}
	if maxProbes <= 0 {
		maxProbes = 4096
	}
	session, err := in.NewHierarchySession(1)
	if err != nil {
		return EgressResult{}, err
	}
	var result EgressResult
	// seen marks each egress address with the logs it reached (bit 0 the
	// parent, bit 1 the child); ips keeps each log's first-seen order.
	// Each read takes only the session's arrivals since the last one.
	seen := make(map[netip.Addr]uint8)
	logs := [2]*authns.QueryLog{in.Parent.Log(), in.Child.Log()}
	var ips [2][]netip.Addr
	var cursors [2]int
	count := func() int {
		for i, log := range logs {
			entries, next := log.EntriesSince(session.ChildOrigin, cursors[i])
			cursors[i] = next
			for _, e := range entries {
				if bit := uint8(1) << i; seen[e.Src]&bit == 0 {
					seen[e.Src] |= bit
					ips[i] = append(ips[i], e.Src)
				}
			}
		}
		return len(seen)
	}
	stale := 0
	failures := 0
	for i := 1; i <= maxProbes && stale < window; i++ {
		result.ProbesSent++
		_, err := p.Probe(ctx, session.ProbeName(i), dnswire.TypeA)
		in.countProbe(err, false)
		if err != nil {
			failures++
		}
		before := len(seen)
		if count() > before {
			stale = 0
		} else {
			stale++
		}
	}
	if failures == result.ProbesSent {
		return result, ErrAllProbesFailed
	}
	count() // anything logged after the last probe's read
	// Parent sources first, then those only the child saw.
	result.IPs = ips[0]
	for _, src := range ips[1] {
		if seen[src]&1 == 0 {
			result.IPs = append(result.IPs, src)
		}
	}
	return result, nil
}
