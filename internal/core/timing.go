package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dnscde/internal/dnswire"
)

// This file implements §IV-B3, the *indirect egress* techniques: counting
// caches purely from response latency, with no cooperating authoritative
// nameserver log.

// ThresholdFunc derives a cached/uncached decision boundary from latency
// calibration samples.
type ThresholdFunc func(cached, uncached []time.Duration) time.Duration

// MidpointThreshold places the boundary halfway between the median cached
// and median uncached latencies.
func MidpointThreshold(cached, uncached []time.Duration) time.Duration {
	return (durMedian(cached) + durMedian(uncached)) / 2
}

// KMeansThreshold ignores the labelled calibration split, pools all
// samples and runs 1-D 2-means; the boundary is the midpoint of the two
// final centroids. It is the ablation alternative when calibration labels
// are unreliable.
func KMeansThreshold(cached, uncached []time.Duration) time.Duration {
	all := make([]float64, 0, len(cached)+len(uncached))
	for _, d := range cached {
		all = append(all, float64(d))
	}
	for _, d := range uncached {
		all = append(all, float64(d))
	}
	if len(all) == 0 {
		return 0
	}
	sort.Float64s(all)
	lo, hi := all[0], all[len(all)-1]
	if lo == hi {
		return time.Duration(lo)
	}
	for iter := 0; iter < 50; iter++ {
		var sumLo, sumHi float64
		var nLo, nHi int
		for _, v := range all {
			if v-lo <= hi-v {
				sumLo += v
				nLo++
			} else {
				sumHi += v
				nHi++
			}
		}
		newLo, newHi := lo, hi
		if nLo > 0 {
			newLo = sumLo / float64(nLo)
		}
		if nHi > 0 {
			newHi = sumHi / float64(nHi)
		}
		if newLo == lo && newHi == hi {
			break
		}
		lo, hi = newLo, newHi
	}
	return time.Duration((lo + hi) / 2)
}

func durMedian(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// Timing-channel calibration: timingSeedQueries force the calibration
// honey record into all caches (the paper's example redundancy), and
// timingCalibration is the number of latency samples per class.
const (
	timingSeedQueries = 100
	timingCalibration = 16
)

// TimingOptions tunes the timing-channel enumeration.
type TimingOptions struct {
	// CountProbes is the probe budget of the counting phase; zero
	// defaults to RecommendedQueries(8, 0.99).
	CountProbes int
	// Threshold derives the decision boundary; nil defaults to
	// MidpointThreshold.
	Threshold ThresholdFunc
}

func (o TimingOptions) withDefaults() TimingOptions {
	if o.CountProbes == 0 {
		o.CountProbes = RecommendedQueries(8, 0.99)
	}
	if o.Threshold == nil {
		o.Threshold = MidpointThreshold
	}
	return o
}

// TimingResult is the outcome of a timing-channel enumeration.
type TimingResult struct {
	// Caches is the number of probes classified as uncached-latency —
	// "this number corresponds to the amount of caches" (§IV-B3).
	Caches int
	// Threshold is the decision boundary used.
	Threshold time.Duration
	// CachedRTTs and UncachedRTTs are the calibration samples.
	CachedRTTs, UncachedRTTs []time.Duration
	// CountRTTs are the counting-phase samples.
	CountRTTs  []time.Duration
	ProbesSent int
}

// EnumerateTimingDirect counts caches via latency with a direct prober:
// calibrate the cached latency on a fully seeded honey record and the
// uncached latency on nonexistent random subdomains, then probe a fresh
// honey record and count slow (uncached-latency) responses.
func EnumerateTimingDirect(ctx context.Context, p Prober, in *Infra, opts TimingOptions) (TimingResult, error) {
	if !p.Direct() {
		return TimingResult{}, fmt.Errorf("core: direct timing enumeration needs a direct prober; use EnumerateTimingIndirect")
	}
	opts = opts.withDefaults()
	calib, err := in.NewFlatSession()
	if err != nil {
		return TimingResult{}, err
	}
	var result TimingResult

	// Phase 1: force the calibration honey record into all caches.
	for i := 0; i < timingSeedQueries; i++ {
		result.ProbesSent++
		_, _ = p.Probe(ctx, calib.Honey, dnswire.TypeA)
	}
	// Phase 2a: cached-latency samples (honey is now everywhere).
	for i := 0; i < timingCalibration; i++ {
		result.ProbesSent++
		pr, err := p.Probe(ctx, calib.Honey, dnswire.TypeA)
		if err != nil {
			continue
		}
		result.CachedRTTs = append(result.CachedRTTs, pr.RTT)
	}
	// Phase 2b: uncached-latency samples — random subdomains of the honey
	// name never exist and always traverse the egress path.
	for i := 0; i < timingCalibration; i++ {
		result.ProbesSent++
		pr, err := p.Probe(ctx, calib.FreshName(i), dnswire.TypeA)
		if err != nil {
			continue
		}
		result.UncachedRTTs = append(result.UncachedRTTs, pr.RTT)
	}
	if len(result.CachedRTTs) == 0 || len(result.UncachedRTTs) == 0 {
		return result, ErrAllProbesFailed
	}
	result.Threshold = opts.Threshold(result.CachedRTTs, result.UncachedRTTs)

	// Phase 3: count — a fresh honey record starts uncached everywhere;
	// each cache is slow exactly once.
	count, err := in.NewFlatSession()
	if err != nil {
		return result, err
	}
	for i := 0; i < opts.CountProbes; i++ {
		result.ProbesSent++
		pr, err := p.Probe(ctx, count.Honey, dnswire.TypeA)
		if err != nil {
			continue
		}
		result.CountRTTs = append(result.CountRTTs, pr.RTT)
		if pr.RTT > result.Threshold {
			result.Caches++
		}
	}
	return result, nil
}

// EnumerateTimingIndirect counts caches via latency through local caches
// (web-browser access): probe q distinct names in a fresh delegated zone;
// a probe landing on a cache without the delegation pays an extra referral
// round trip. The run self-calibrates — the first probe is always
// uncovered (slow baseline) and the trailing probes are almost surely
// covered (fast baseline) — and counts slow probes.
func EnumerateTimingIndirect(ctx context.Context, p Prober, in *Infra, opts TimingOptions) (TimingResult, error) {
	opts = opts.withDefaults()
	q := opts.CountProbes
	tail := timingCalibration
	session, err := in.NewHierarchySession(q + tail)
	if err != nil {
		return TimingResult{}, err
	}
	var result TimingResult
	rtts := make([]time.Duration, 0, q)
	for i := 1; i <= q; i++ {
		result.ProbesSent++
		pr, err := p.Probe(ctx, session.ProbeName(i), dnswire.TypeA)
		if err != nil || pr.FromLocalCache {
			continue
		}
		rtts = append(rtts, pr.RTT)
	}
	if len(rtts) == 0 {
		return result, ErrAllProbesFailed
	}
	// Tail probes after q samples: the delegation is cached in nearly
	// every cache, so they give the fast (delegation-cached) baseline.
	for i := q + 1; i <= q+tail; i++ {
		result.ProbesSent++
		pr, err := p.Probe(ctx, session.ProbeName(i), dnswire.TypeA)
		if err != nil || pr.FromLocalCache {
			continue
		}
		result.CachedRTTs = append(result.CachedRTTs, pr.RTT)
	}
	// The first probe can never have found the delegation cached.
	result.UncachedRTTs = []time.Duration{rtts[0]}
	if len(result.CachedRTTs) == 0 {
		return result, ErrAllProbesFailed
	}
	result.Threshold = opts.Threshold(result.CachedRTTs, result.UncachedRTTs)
	result.CountRTTs = rtts
	for _, rtt := range rtts {
		if rtt > result.Threshold {
			result.Caches++
		}
	}
	return result, nil
}
