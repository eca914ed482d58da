package core

import (
	"context"

	"dnscde/internal/dnswire"
)

// This file implements the §V-B two-phase measurement protocol used in
// the paper's Internet study: an *init* phase that sends N seed queries
// "in parallel or in rapid succession" (planting a honey record in the
// caches they hit) and a *validate* phase that re-requests the seeded
// record N times and checks for its presence.
//
// With uniform cache selection the init phase covers a cache with
// probability 1-exp(-N/n); the validate phase confirms coverage and picks
// up stragglers. The union of arrivals over both phases is the cache
// count, and it is robust to packet loss because every phase is N-way
// redundant ("carpet bombing").

// InitValidateOptions tunes the protocol.
type InitValidateOptions struct {
	// N is the per-phase probe count; it should exceed the expected
	// cache count (the paper recommends N = 2n, which misses only
	// exp(-2) ≈ 13.5% of caches in init and virtually none after
	// validate). Zero defaults to 16.
	N int
}

func (o InitValidateOptions) withDefaults() InitValidateOptions {
	if o.N == 0 {
		o.N = 16
	}
	return o
}

// InitValidateResult is the outcome of one init/validate run.
type InitValidateResult struct {
	N int
	// InitArrivals is ω during init: distinct caches covered by seeds.
	InitArrivals int
	// ValidateArrivals counts caches first reached during validate
	// (missed by init).
	ValidateArrivals int
	// Caches is the total over both phases — the measured cache count.
	Caches int
	// ValidateHits is the number of validate probes answered from a
	// cache (seed present), the protocol's empirical success count.
	ValidateHits int
	// ProbeErrors counts probes lost to timeouts across both phases.
	ProbeErrors int
}

// InitValidate runs the two-phase protocol against the platform behind p.
//
// Each phase sends its N probes in rapid succession from the caller, one
// after another. A cache is therefore counted once no matter how many
// seeds reach it: the first seed misses and plants the record, later
// seeds hit it. That is the count the paper's coverage analysis
// (1-exp(-N/n)) assumes, and the count parallel seeds give against a
// resolver that coalesces identical outstanding misses, as Unbound and
// BIND do. The outcome is a function of the world's seed alone.
func InitValidate(ctx context.Context, p Prober, in *Infra, opts InitValidateOptions) (InitValidateResult, error) {
	opts = opts.withDefaults()
	session, err := in.NewFlatSession()
	if err != nil {
		return InitValidateResult{}, err
	}
	result := InitValidateResult{N: opts.N}

	// Init phase: N seed probes.
	in.mInitSeeds.Add(int64(opts.N))
	result.ProbeErrors += probeBurst(ctx, p, in, session.Honey, opts.N)
	result.InitArrivals = session.ObservedCaches()

	// Validate phase: N presence checks.
	in.mValidateSeeds.Add(int64(opts.N))
	result.ProbeErrors += probeBurst(ctx, p, in, session.Honey, opts.N)
	total := session.ObservedCaches()
	result.ValidateArrivals = total - result.InitArrivals
	result.Caches = total
	result.ValidateHits = opts.N - result.ValidateArrivals

	if result.ProbeErrors == 2*opts.N {
		return result, ErrAllProbesFailed
	}
	return result, nil
}

// probeBurst sends n probes for name in rapid succession and returns the
// number of failed probes. Each probe is charged to the infrastructure's
// cost accounting.
func probeBurst(ctx context.Context, p Prober, in *Infra, name string, n int) int {
	failures := 0
	for i := 0; i < n; i++ {
		_, err := p.Probe(ctx, name, dnswire.TypeA)
		in.countProbe(err, false)
		if err != nil {
			failures++
		}
	}
	return failures
}
