package core

import (
	"context"
	"fmt"
	"sync"

	"dnscde/internal/dnswire"
	"dnscde/internal/trace"
)

// LossEstimator is an online estimator of the probe-level loss rate — the
// measured quantity the paper's §V-B plugs into the carpet-bombing factor
// ("the rate at which replicates are transmitted is increased according to
// the packet loss rate"; Iran ~11%, China ~4%). It is fed one probe
// outcome at a time (Record) and is safe for concurrent use.
type LossEstimator struct {
	mu     sync.Mutex
	sent   int64
	failed int64
}

// Record adds one probe outcome.
func (e *LossEstimator) Record(failed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sent++
	if failed {
		e.failed++
	}
}

// Counts returns the probes observed and how many of them failed.
func (e *LossEstimator) Counts() (sent, failed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sent, e.failed
}

// Rate returns the observed loss rate, 0 before any probe has been
// recorded. The plain ratio (no smoothing prior) matters: a loss-free run
// must estimate exactly 0 so the replication factor stays 1 and a clean
// measurement costs not one probe more than the uncompensated loop.
func (e *LossEstimator) Rate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sent == 0 {
		return 0
	}
	return float64(e.failed) / float64(e.sent)
}

// Replicates returns the §V carpet-bombing factor K for the current
// estimate: the smallest K with 1-rate^K >= confidence, capped at maxK
// (maxK <= 0 means uncapped). Before any probe has been recorded the
// estimator has no evidence of loss, so K is defined to be exactly 1 —
// never NaN-driven or confidence-dependent — and the compensated loop's
// first probe costs the same as the uncompensated one.
func (e *LossEstimator) Replicates(confidence float64, maxK int) int {
	if sent, _ := e.Counts(); sent == 0 {
		return 1
	}
	k := CarpetBombingFactor(e.Rate(), confidence)
	if maxK > 0 && k > maxK {
		k = maxK
	}
	return k
}

// probeFailed decides whether a probe outcome counts as lost for
// compensation purposes: transport errors (timeouts) and injected server
// failures (SERVFAIL/REFUSED) both starve the honey-record sample, so
// both inflate the replication factor.
func probeFailed(res ProbeResult, err error) bool {
	if err != nil {
		return true
	}
	return res.RCode != dnswire.RCodeNoError
}

// Loss compensation targets a per-probe survival 1-rate^K of
// compensateConfidence and caps K at compensateMaxReplicates, so a
// pathological loss estimate cannot explode the probe budget.
const (
	compensateConfidence    = 0.99
	compensateMaxReplicates = 8
)

// CompensateOptions tunes loss-compensated enumeration.
type CompensateOptions struct {
	// Estimator, when non-nil, carries loss knowledge across
	// enumerations; nil starts fresh.
	Estimator *LossEstimator
}

// EnumerateDirectCompensated is EnumerateDirect with §V-B loss
// compensation: the replication factor K is re-derived from the online
// loss estimate before every probe, so the loop starts at K=1 on a clean
// path and climbs toward the carpet-bombing factor as losses are observed
// — converging on the paper's "replicates increased according to the
// packet loss rate" without a separate calibration pass.
func EnumerateDirectCompensated(ctx context.Context, p Prober, in *Infra, opts EnumOptions, copts CompensateOptions) (EnumResult, error) {
	opts = opts.withDefaults()
	if !p.Direct() {
		return EnumResult{}, fmt.Errorf("core: direct enumeration needs a direct prober (local caches absorb repeated queries)")
	}
	session, err := in.NewFlatSession()
	if err != nil {
		return EnumResult{}, err
	}
	in.mEnumRounds.Inc()
	est := copts.Estimator
	if est == nil {
		est = &LossEstimator{}
	}
	res := EnumResult{Technique: TechniqueDirect}
	lastK := 0
	for i := 0; i < opts.Queries; i++ {
		k := est.Replicates(compensateConfidence, compensateMaxReplicates)
		if k < opts.Replicates {
			k = opts.Replicates // never below the caller's explicit floor
		}
		if k != lastK {
			if t := trace.From(ctx); t != nil {
				t.Add("compensate", "loss=%.3f K=%d (probe %d/%d)", est.Rate(), k, i+1, opts.Queries)
			}
			lastK = k
		}
		for r := 0; r < k; r++ {
			res.ProbesSent++
			pres, err := p.Probe(ctx, session.Honey, dnswire.TypeA)
			in.countProbe(err, r > 0)
			failed := probeFailed(pres, err)
			est.Record(failed)
			if failed {
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
