package core

import (
	"context"
	"errors"
	"fmt"

	"dnscde/internal/dnswire"
	"dnscde/internal/trace"
)

// Technique identifies a CDE enumeration methodology.
type Technique string

// Enumeration techniques.
const (
	// TechniqueDirect: direct ingress + direct egress (§IV-B1) — q
	// identical queries for one honey name.
	TechniqueDirect Technique = "direct"
	// TechniqueChain: indirect ingress via the CNAME-chain bypass
	// (§IV-B2a) — q distinct aliases of one target.
	TechniqueChain Technique = "cname-chain"
	// TechniqueHierarchy: indirect ingress via the names-hierarchy bypass
	// (§IV-B2b) — q distinct names in a fresh delegated zone.
	TechniqueHierarchy Technique = "names-hierarchy"
	// TechniqueTiming: indirect egress via response latency (§IV-B3).
	TechniqueTiming Technique = "timing"
)

// EnumOptions tunes an enumeration run.
type EnumOptions struct {
	// Queries is q, the probe budget. Zero defaults to
	// RecommendedQueries(8, 0.99) — enough to cover up to 8 caches with
	// 99% confidence under unpredictable selection.
	Queries int
	// Replicates is the carpet-bombing factor K (§V): each probe is sent
	// K times so that packet loss on the measured path does not starve
	// the sample. Zero defaults to 1 (no replication).
	Replicates int
}

// withDefaults normalises opts.
func (o EnumOptions) withDefaults() EnumOptions {
	if o.Queries == 0 {
		o.Queries = RecommendedQueries(8, 0.99)
	}
	if o.Replicates == 0 {
		o.Replicates = 1
	}
	return o
}

// EnumResult is the outcome of one enumeration run.
type EnumResult struct {
	Technique Technique
	// Caches is ω, the measured cache count.
	Caches int
	// ProbesSent counts probe queries issued (including carpet-bombing
	// replicates); ProbeErrors counts those lost to timeouts.
	ProbesSent  int
	ProbeErrors int
}

// ErrAllProbesFailed reports an enumeration whose every probe was lost.
var ErrAllProbesFailed = errors.New("core: all probes failed")

// EnumerateDirect counts the caches behind a directly accessible ingress
// IP (§IV-B1a): q identical queries for a fresh honey record; the number
// of arrivals at the nameserver is the cache count.
func EnumerateDirect(ctx context.Context, p Prober, in *Infra, opts EnumOptions) (EnumResult, error) {
	opts = opts.withDefaults()
	if !p.Direct() {
		return EnumResult{}, fmt.Errorf("core: direct enumeration needs a direct prober (local caches absorb repeated queries)")
	}
	session, err := in.NewFlatSession()
	if err != nil {
		return EnumResult{}, err
	}
	in.mEnumRounds.Inc()
	res := EnumResult{Technique: TechniqueDirect}
	for i := 0; i < opts.Queries; i++ {
		for k := 0; k < opts.Replicates; k++ {
			res.ProbesSent++
			_, err := p.Probe(ctx, session.Honey, dnswire.TypeA)
			in.countProbe(err, k > 0)
			if err != nil {
				res.ProbeErrors++
			}
		}
	}
	if res.ProbeErrors == res.ProbesSent {
		return res, ErrAllProbesFailed
	}
	res.Caches = session.ObservedCaches()
	return res, nil
}

// EnumerateChain counts caches through local caches using the CNAME-chain
// bypass (§IV-B2a): q distinct aliases all pointing at one target; each
// cache resolves the target at most once, so arrivals for the target
// count the caches.
func EnumerateChain(ctx context.Context, p Prober, in *Infra, opts EnumOptions) (EnumResult, error) {
	opts = opts.withDefaults()
	session, err := in.NewChainSession(opts.Queries)
	if err != nil {
		return EnumResult{}, err
	}
	in.mEnumRounds.Inc()
	res := EnumResult{Technique: TechniqueChain}
	for _, alias := range session.Aliases {
		for k := 0; k < opts.Replicates; k++ {
			res.ProbesSent++
			_, err := p.Probe(ctx, alias, dnswire.TypeA)
			in.countProbe(err, k > 0)
			if err != nil {
				res.ProbeErrors++
			}
		}
	}
	if res.ProbeErrors == res.ProbesSent {
		return res, ErrAllProbesFailed
	}
	// Count per query type and take the best group: channels like SMTP
	// resolve each alias under several types, and every type group is an
	// independent enumeration of the same caches.
	res.Caches = session.ObservedCachesBestType()
	return res, nil
}

// EnumerateHierarchy counts caches through local caches using the
// names-hierarchy bypass (§IV-B2b): q distinct names in a freshly
// delegated child zone; only caches that lack the delegation visit the
// parent, so parent arrivals count the caches.
func EnumerateHierarchy(ctx context.Context, p Prober, in *Infra, opts EnumOptions) (EnumResult, error) {
	opts = opts.withDefaults()
	session, err := in.NewHierarchySession(opts.Queries)
	if err != nil {
		return EnumResult{}, err
	}
	in.mEnumRounds.Inc()
	res := EnumResult{Technique: TechniqueHierarchy}
	for i := 1; i <= opts.Queries; i++ {
		name := session.ProbeName(i)
		for k := 0; k < opts.Replicates; k++ {
			res.ProbesSent++
			_, err := p.Probe(ctx, name, dnswire.TypeA)
			in.countProbe(err, k > 0)
			if err != nil {
				res.ProbeErrors++
			}
		}
	}
	if res.ProbeErrors == res.ProbesSent {
		return res, ErrAllProbesFailed
	}
	res.Caches = session.ObservedCaches()
	return res, nil
}

// EnumerateUntilComplete probes one fresh honey record until the
// nameserver has observed `target` distinct arrivals (ω == target) or
// maxProbes is exhausted — the direct Monte-Carlo instrument of Theorem
// 5.1: under uniform selection the expected number of probes to complete
// is n·H_n, the coupon-collector bound. It returns the probes actually
// spent, so repeated trials sample the full completion-time distribution.
//
// The loop carries §V-B loss compensation: an online LossEstimator tracks
// failed probes (timeouts and SERVFAIL/REFUSED answers) and each round
// replicates its probe by the carpet-bombing factor for the estimated
// rate. On a loss-free path the estimate stays 0 and the factor 1, so the
// probe count is exactly the uncompensated one — the cost-accounting
// experiment's n·H_n comparison is unaffected.
func EnumerateUntilComplete(ctx context.Context, p Prober, in *Infra, target, maxProbes int) (EnumResult, error) {
	if target < 1 {
		return EnumResult{}, fmt.Errorf("core: completion target must be >= 1, have %d", target)
	}
	if maxProbes < target {
		maxProbes = target * 64
	}
	if !p.Direct() {
		return EnumResult{}, fmt.Errorf("core: completion enumeration needs a direct prober")
	}
	session, err := in.NewFlatSession()
	if err != nil {
		return EnumResult{}, err
	}
	in.mEnumRounds.Inc()
	est := &LossEstimator{}
	res := EnumResult{Technique: TechniqueDirect}
	lastK := 1
	for res.ProbesSent < maxProbes {
		k := est.Replicates(compensateConfidence, compensateMaxReplicates)
		if k != lastK {
			if t := trace.From(ctx); t != nil {
				t.Add("compensate", "loss=%.3f K=%d after %d probes", est.Rate(), k, res.ProbesSent)
			}
			lastK = k
		}
		for r := 0; r < k && res.ProbesSent < maxProbes; r++ {
			res.ProbesSent++
			pres, err := p.Probe(ctx, session.Honey, dnswire.TypeA)
			in.countProbe(err, r > 0)
			failed := probeFailed(pres, err)
			est.Record(failed)
			if failed {
				res.ProbeErrors++
			}
		}
		if res.Caches = session.ObservedCaches(); res.Caches >= target {
			return res, nil
		}
	}
	if res.ProbeErrors == res.ProbesSent {
		return res, ErrAllProbesFailed
	}
	return res, nil
}
