package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"dnscde/internal/core"
	"dnscde/internal/loadbal"
	"dnscde/internal/platform"
	"dnscde/internal/simtest"
	"dnscde/internal/stats"
)

// softwareProfile describes a resolver-software behavioural archetype in
// the spirit of the §VI fingerprinting literature.
type softwareProfile struct {
	label core.Software
	share float64 // population share, loosely following passive surveys
	apply func(*platform.Config)
}

var _softwareProfiles = []softwareProfile{
	{core.SoftwareChainTrusting, 0.55, func(c *platform.Config) {
		c.TrustAnswerChains = true
		c.MaxCNAMEChase = 16
	}},
	{core.SoftwareHardened, 0.30, func(c *platform.Config) {
		c.MaxCNAMEChase = 11
	}},
	{core.SoftwareAAAACoupled, 0.15, func(c *platform.Config) {
		c.QueryAAAA = true
		c.MaxCNAMEChase = 8
	}},
}

// FingerprintSurvey measures resolver-software shares across a population
// (§II-C: knowing "which software the caches are running" matters for
// patch distribution; §VI: prior studies fingerprint only egress IPs).
// Every platform is fingerprinted with three probes and classified; the
// measured shares are compared with the deployed ground truth.
func FingerprintSurvey(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w, err := cfg.world()
	if err != nil {
		return nil, err
	}
	size := cfg.OpenResolvers
	if size < 150 {
		size = 150
	}

	truth := map[core.Software]int{}
	measured := map[core.Software]int{}
	correct := 0
	limitSamples := map[core.Software][]int{}
	for i := 0; i < size; i++ {
		// Sample a software profile per platform.
		x := rng.Float64()
		var profile softwareProfile
		acc := 0.0
		for _, p := range _softwareProfiles {
			acc += p.share
			if x < acc {
				profile = p
				break
			}
		}
		if profile.label == "" {
			profile = _softwareProfiles[len(_softwareProfiles)-1]
		}
		truth[profile.label]++

		plat, err := w.NewPlatform(simtest.PlatformSpec{
			Name: fmt.Sprintf("fp-%d", i), Caches: 1 + rng.Intn(4), Seed: int64(i),
			Mutate: func(c *platform.Config) {
				c.Selector = loadbal.NewRandom(int64(i))
				profile.apply(c)
			},
		})
		if err != nil {
			return nil, err
		}
		fp, err := core.FingerprintResolver(ctx, w.DirectProber(plat.Config().IngressIPs[0]), w.Infra)
		if err != nil {
			return nil, err
		}
		verdict := core.ClassifySoftware(fp)
		measured[verdict]++
		if verdict == profile.label {
			correct++
		}
		if fp.ChaseLimited {
			limitSamples[verdict] = append(limitSamples[verdict], fp.ObservedChaseDepth)
		}
	}

	table := &stats.Table{Header: []string{"Software class", "Ground truth", "Measured"}}
	report := &Report{ID: "fingerprint", Title: "§II-C / §VI: resolver-software fingerprinting survey"}
	for _, p := range _softwareProfiles {
		truthShare := float64(truth[p.label]) / float64(size)
		measShare := float64(measured[p.label]) / float64(size)
		table.AddRow(string(p.label), stats.FormatPercent(truthShare), stats.FormatPercent(measShare))
		report.Checks = append(report.Checks, Check{
			Name:  fmt.Sprintf("%s share recovered", p.label),
			Paper: truthShare, Measured: measShare, Tolerance: 0.02,
		})
	}
	accuracy := float64(correct) / float64(size)
	report.Checks = append(report.Checks, Check{
		Name: "per-platform classification accuracy", Paper: 1.0, Measured: accuracy, Tolerance: 0.03,
	})
	report.Text = table.String() + fmt.Sprintf(
		"\nPer-platform accuracy: %s over %d platforms (3 probes each: AAAA coupling,\nshallow-chain trust, deep-chain chase limit).\n",
		stats.FormatPercent(accuracy), size)
	return report, nil
}
