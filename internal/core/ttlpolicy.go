package core

import (
	"context"
	"fmt"
	"time"

	"dnscde/internal/dnswire"
)

// This file infers a platform's TTL-clamping policy — the paper's §II-C
// footnote: "Some DNS resolution platforms enforce a minimal and a
// maximal TTL. In those cases, TTL that is smaller than the minimum, or
// larger than the maximum will be adjusted by the cache." The clamp is
// visible in the TTL values the platform serves for records whose
// authoritative TTLs the prober chose.

// TTLPolicy is the inferred clamping behaviour.
type TTLPolicy struct {
	// MinTTL is the inferred floor (0 = none detected): the platform
	// served a low-TTL record with a larger TTL.
	MinTTL time.Duration
	// MaxTTL is the inferred cap (0 = none detected): the platform
	// served a high-TTL record with a smaller TTL.
	MaxTTL time.Duration
	// LowServed/HighServed are the raw observations for the low- and
	// high-TTL probe records.
	LowServed, HighServed time.Duration
	ProbesSent            int
}

// Authoritative TTLs of the floor and cap probe records: well under
// common min-TTL clamps and well over common max-TTL clamps.
const (
	ttlProbeLow  = 5 * time.Second
	ttlProbeHigh = 7 * 24 * time.Hour
)

// TTLProbeOptions tunes InferTTLPolicy.
type TTLProbeOptions struct {
	// Probes per record; zero defaults to 24. Multiple probes are needed
	// because only *cache hits* expose the clamp, and under a multi-cache
	// load balancer any single repeat may land on a cold cache.
	Probes int
}

func (o TTLProbeOptions) withDefaults() TTLProbeOptions {
	if o.Probes == 0 {
		o.Probes = 24
	}
	return o
}

// InferTTLPolicy plants two honey records — one with a very low and one
// with a very high authoritative TTL — resolves each repeatedly through
// the platform, and compares the served TTLs against the authoritative
// values. Cache misses serve the authoritative TTL verbatim; cache hits
// serve the (possibly clamped, decayed) cached TTL. Across enough probes
// to hit a warm cache with high probability:
//
//   - max(served) for the low-TTL record above its authoritative TTL
//     reveals a min-TTL clamp (and its approximate value);
//   - min(served) for the high-TTL record below its authoritative TTL
//     reveals a max-TTL clamp.
func InferTTLPolicy(ctx context.Context, p Prober, in *Infra, opts TTLProbeOptions) (TTLPolicy, error) {
	opts = opts.withDefaults()
	var policy TTLPolicy

	probeServed := func(ttl uint32) (minServed, maxServed time.Duration, err error) {
		session, err := in.NewFlatSessionTTL(ttl)
		if err != nil {
			return 0, 0, err
		}
		got := false
		for i := 0; i < opts.Probes; i++ {
			policy.ProbesSent++
			res, err := p.Probe(ctx, session.Honey, dnswire.TypeA)
			if err != nil {
				continue
			}
			for _, rr := range res.Records {
				if rr.Type() != dnswire.TypeA {
					continue
				}
				served := time.Duration(rr.TTL) * time.Second
				if !got || served < minServed {
					minServed = served
				}
				if served > maxServed {
					maxServed = served
				}
				got = true
			}
		}
		if !got {
			return 0, 0, fmt.Errorf("%w: ttl probe", ErrAllProbesFailed)
		}
		return minServed, maxServed, nil
	}

	_, lowMax, err := probeServed(uint32(ttlProbeLow / time.Second))
	if err != nil {
		return policy, err
	}
	policy.LowServed = lowMax
	// Allow one second of decay slack between caching and serving.
	if lowMax > ttlProbeLow+time.Second {
		policy.MinTTL = lowMax
	}

	highMin, _, err := probeServed(uint32(ttlProbeHigh / time.Second))
	if err != nil {
		return policy, err
	}
	policy.HighServed = highMin
	if highMin > 0 && highMin+time.Second < ttlProbeHigh {
		policy.MaxTTL = highMin
	}
	return policy, nil
}
