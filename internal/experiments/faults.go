package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dnscde/internal/core"
	"dnscde/internal/detpar"
	"dnscde/internal/loadbal"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
	"dnscde/internal/simtest"
	"dnscde/internal/stats"
)

// faultProfiles is the sweep: each row injects one deterministic fault
// profile into the platform's link and measures both enumeration arms
// against it. Specs use the ParseFaultProfile syntax so the table
// doubles as -faults documentation.
var faultProfiles = []struct {
	label string
	spec  string
}{
	{"clean", ""},
	{"burst 5% (mean 4)", "burst=0.05:4"},
	{"Iran burst 11%", "burst=0.11:4"},
	{"Iran + SERVFAIL 2%", "burst=0.11:4,servfail=0.02"},
	{"outage (probes 4-11)", "outage=4+8"},
}

// Faults sweeps deterministic fault profiles over a known platform and
// compares raw enumeration (K=1, §IV-B1) against the §V-B
// loss-compensated loop, whose online estimator inflates the
// carpet-bombing replication factor as losses are observed. Under burst
// loss the raw arm's ω undercounts the true cache count; the compensated
// arm spends extra replicates and recovers it.
func Faults(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()

	const n = 8
	const trials = 40
	q := core.RecommendedQueries(n, 0.90)

	table := &stats.Table{Header: []string{
		"Fault profile", "raw ω", "comp ω", "est loss", "mean K", "raw probes", "comp probes"}}
	report := &Report{ID: "faults", Title: "§V-B fault injection: raw vs loss-compensated enumeration"}

	type ftTrial struct {
		rawCaches, compCaches   float64
		rawProbes, compProbes   float64
		lossEstimate, replicate float64
	}
	for pi, pc := range faultProfiles {
		fp, err := netsim.ParseFaultProfile(pc.spec)
		if err != nil {
			return nil, fmt.Errorf("faults: profile %q: %w", pc.label, err)
		}
		results, err := detpar.Map(ctx, detpar.Derive(cfg.Seed, 55, uint64(pi)), trials, cfg.Workers,
			func(trial int, rng *rand.Rand) (ftTrial, error) {
				// A world per trial, a prober per arm: each arm's probe flow
				// owns its RNG stream, so burst chains and outage windows hit
				// both arms independently and the merged report is identical
				// at any worker count.
				w, err := cfg.trialWorld(rng.Int63())
				if err != nil {
					return ftTrial{}, err
				}
				plat, err := w.NewPlatform(simtest.PlatformSpec{
					Caches: n, Seed: int64(trial),
					Profile: netsim.LinkProfile{OneWay: 2 * time.Millisecond, Faults: fp},
					Mutate: func(c *platform.Config) {
						c.Selector = loadbal.NewRandom(int64(trial*7 + 1))
					},
				})
				if err != nil {
					return ftTrial{}, err
				}
				ingress := plat.Config().IngressIPs[0]

				// Both arms run under RunSequenced, so the probes ride
				// the world's event-loop lanes — byte-identical results at
				// any shard count (DESIGN.md §12).
				var raw, comp core.EnumResult
				est := &core.LossEstimator{}
				err = w.RunSequenced(ctx, func(ctx context.Context) error {
					raw, err = core.EnumerateDirect(ctx, w.DirectProber(ingress), w.Infra,
						core.EnumOptions{Queries: q})
					if err != nil && !errors.Is(err, core.ErrAllProbesFailed) {
						return err
					}
					comp, err = core.EnumerateDirectCompensated(ctx, w.DirectProber(ingress), w.Infra,
						core.EnumOptions{Queries: q}, core.CompensateOptions{Estimator: est})
					if err != nil && !errors.Is(err, core.ErrAllProbesFailed) {
						return err
					}
					return nil
				})
				if err != nil {
					return ftTrial{}, err
				}
				return ftTrial{
					rawCaches:    float64(raw.Caches),
					compCaches:   float64(comp.Caches),
					rawProbes:    float64(raw.ProbesSent),
					compProbes:   float64(comp.ProbesSent),
					lossEstimate: est.Rate(),
					replicate:    float64(est.Replicates(0.99, 8)),
				}, nil
			})
		if err != nil {
			return nil, err
		}
		var sum ftTrial
		for _, r := range results {
			sum.rawCaches += r.rawCaches
			sum.compCaches += r.compCaches
			sum.rawProbes += r.rawProbes
			sum.compProbes += r.compProbes
			sum.lossEstimate += r.lossEstimate
			sum.replicate += r.replicate
		}
		rawMean := sum.rawCaches / trials
		compMean := sum.compCaches / trials
		lossMean := sum.lossEstimate / trials
		kMean := sum.replicate / trials
		table.AddRow(pc.label,
			fmt.Sprintf("%.2f", rawMean), fmt.Sprintf("%.2f", compMean),
			stats.FormatPercent(lossMean), fmt.Sprintf("%.2f", kMean),
			fmt.Sprintf("%.1f", sum.rawProbes/trials), fmt.Sprintf("%.1f", sum.compProbes/trials))

		switch {
		case pc.spec == "":
			// A clean path must cost exactly nothing: the estimator stays at
			// 0, K at 1, and the compensated arm's probe count equals the raw
			// arm's budget.
			report.Checks = append(report.Checks,
				Check{Name: "clean: compensated probes equal raw budget",
					Paper: float64(q), Measured: sum.compProbes / trials, Tolerance: 0.01},
				Check{Name: "clean: estimated loss is zero",
					Paper: 0, Measured: lossMean, Tolerance: 0.001},
				Check{Name: "clean: compensated ω recovers n",
					Paper: n, Measured: compMean, Tolerance: 0.35},
			)
		default:
			// Every faulty profile: the raw arm undercounts (its deficit to n
			// is visibly positive) and the compensated arm recovers the true
			// count within the §V-B tolerance while spending extra probes.
			report.Checks = append(report.Checks,
				Check{Name: pc.label + ": raw ω undercounts n (deficit)",
					Paper: 0.25, Measured: n - rawMean, Tolerance: 0.24},
				Check{Name: pc.label + ": compensated ω recovers n",
					Paper: n, Measured: compMean, Tolerance: 0.40},
				Check{Name: pc.label + ": compensation spends extra probes",
					Paper: 2.3, Measured: (sum.compProbes / trials) / float64(q), Tolerance: 1.25},
			)
		}
	}
	report.Text = table.String() + fmt.Sprintf(
		"\nn=%d caches, q=%d probes/arm (90%% union-bound budget), %d trials/profile.\n"+
			"raw arm: EnumerateDirect with K=1. comp arm: online loss estimate feeding\n"+
			"the carpet-bombing factor K (§V-B), capped at 8.\n", n, q, trials)
	return report, nil
}
