// Package experiments regenerates every table and figure of the paper's
// evaluation (§III and §V) against synthetic populations, and reports
// paper-published, ground-truth and CDE-measured values side by side.
//
// Each experiment is a function from Config to *Report; the Registry maps
// the identifiers used by cmd/cdebench and the root-level benchmarks to
// drivers. See DESIGN.md §4 for the experiment index.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/simtest"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Seed drives all random generation; 0 defaults to 2017.
	Seed int64
	// OpenResolvers, Enterprises, ISPs are the population sizes measured
	// by the per-dataset experiments. Zero defaults to 120 each —
	// large enough for stable shares, small enough for quick runs. The
	// paper's own datasets were 1K/1K/~240.
	OpenResolvers, Enterprises, ISPs int
	// ScaleClients and ScaleCaches size the `scale` DES sweep: the number
	// of concurrent stub clients multiplexed on one event scheduler and
	// the number of simulated caches they query. Zero defaults to the
	// headline 1M-client / 10K-cache configuration; CI runs a smaller
	// population via cdebench's -clients/-caches flags.
	ScaleClients, ScaleCaches int
	// Metrics receives the run's probe-cost accounting. Run installs a
	// fresh registry when nil, so every report carries a Cost summary.
	Metrics *metrics.Registry
	// Workers bounds the parallelism of the Monte-Carlo trial loops and
	// the dataset measurement pool; <= 0 uses the hardware (GOMAXPROCS).
	// Reports are byte-identical at any worker count — parallel fan-out
	// goes through detpar, whose per-index RNG derivation and
	// index-ordered merge keep results independent of scheduling.
	Workers int
	// Faults, when non-nil, injects the deterministic fault profile
	// (burst loss, SERVFAIL/REFUSED, truncation, duplication, outages)
	// into every platform link an experiment builds — cdebench's -faults
	// flag. Nil leaves all links clean.
	Faults *netsim.FaultProfile
	// Shards is the number of event-loop lanes every world an experiment
	// builds runs on (simtest.Options.Shards); values below 1 mean one
	// lane. Like Workers, it tunes execution, not results: reports are
	// byte-identical at any shard count (DESIGN.md §12).
	Shards int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2017
	}
	if c.OpenResolvers == 0 {
		c.OpenResolvers = 120
	}
	if c.Enterprises == 0 {
		c.Enterprises = 120
	}
	if c.ISPs == 0 {
		c.ISPs = 120
	}
	return c
}

// rng returns the experiment's deterministic random source.
func (c Config) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

// world builds a fresh simulated Internet.
func (c Config) world() (*simtest.World, error) {
	return simtest.New(simtest.Options{Seed: c.Seed + 1, Metrics: c.Metrics, PlatformFaults: c.Faults, Shards: c.Shards})
}

// trialWorld builds a per-trial world with the given seed, carrying the
// run's metrics registry, injected fault profile and shard count. Trial
// fan-outs use it so -faults and -shards reach every world an experiment
// builds.
func (c Config) trialWorld(seed int64) (*simtest.World, error) {
	return simtest.New(simtest.Options{Seed: seed, Metrics: c.Metrics, PlatformFaults: c.Faults, Shards: c.Shards})
}

// Check is one shape assertion: a value the paper reports versus the
// value this reproduction measured.
type Check struct {
	Name string
	// Paper is the published value, Measured ours; both in the same unit
	// (fractions for shares, counts for counts).
	Paper, Measured float64
	// Tolerance is the allowed absolute deviation.
	Tolerance float64
}

// Pass reports whether the measured value is within tolerance.
func (c Check) Pass() bool {
	d := c.Measured - c.Paper
	if d < 0 {
		d = -d
	}
	return d <= c.Tolerance
}

// Cost summarises what an experiment run spent, read from the
// internal/metrics registry rather than driver bookkeeping.
type Cost struct {
	// Probes is core.probes.sent: probe queries issued by enumeration and
	// measurement drivers; ProbeErrors is the subset lost to timeouts.
	Probes      int64 `json:"probes"`
	ProbeErrors int64 `json:"probe_errors"`
	// Packets is netsim.packets.sent + netsim.packets.recvd (every
	// simulated datagram, both directions); PacketsLost is
	// netsim.packets.lost.
	Packets     int64 `json:"packets"`
	PacketsLost int64 `json:"packets_lost"`
}

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	// Text is the rendered table/figure, ready to print.
	Text string
	// Checks are the shape assertions.
	Checks []Check
	// Cost is the run's accounting delta; populated by Run.
	Cost Cost
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass() {
			return false
		}
	}
	return true
}

// Render returns the full report including the check summary.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n\n", r.ID, r.Title)
	sb.WriteString(r.Text)
	if len(r.Checks) > 0 {
		sb.WriteString("\nShape checks (paper vs measured):\n")
		for _, c := range r.Checks {
			status := "PASS"
			if !c.Pass() {
				status = "FAIL"
			}
			fmt.Fprintf(&sb, "  [%s] %-48s paper=%.3f measured=%.3f (±%.3f)\n",
				status, c.Name, c.Paper, c.Measured, c.Tolerance)
		}
	}
	if r.Cost != (Cost{}) {
		fmt.Fprintf(&sb, "\nQueries spent: %d probes (%d lost), %d packets (%d lost)\n",
			r.Cost.Probes, r.Cost.ProbeErrors, r.Cost.Packets, r.Cost.PacketsLost)
	}
	return sb.String()
}

// Driver runs one experiment. The context aborts long sweeps early (a
// cancelled ctx stops trial fan-outs between trials and measurement pools
// between targets); drivers pass it down to every probe exchange.
type Driver func(context.Context, Config) (*Report, error)

// Registry maps experiment identifiers to drivers. Identifiers follow
// DESIGN.md §4.
var Registry = map[string]Driver{
	"table1":                TableI,
	"fig2":                  Figure2,
	"fig3":                  Figure3,
	"fig4":                  Figure4,
	"fig5":                  Figure5,
	"fig6":                  Figure6,
	"fig7":                  Figure7,
	"fig8":                  Figure8,
	"thm51":                 Theorem51,
	"initvalidate":          InitValidateSweep,
	"carpet":                CarpetBombing,
	"timing":                TimingChannel,
	"ablation-selection":    AblationSelection,
	"ablation-bypass":       AblationBypass,
	"ablation-threshold":    AblationThreshold,
	"ablation-forwarder":    AblationForwarder,
	"poisoning":             Poisoning,
	"resilience":            Resilience,
	"edns":                  EDNSSurvey,
	"ttlconsistency":        TTLConsistency,
	"classify":              Classify,
	"fingerprint":           FingerprintSurvey,
	"ablation-crosstraffic": AblationCrossTraffic,
	"selectionshare":        SelectionShare,
	"cost":                  CostAccounting,
	"faults":                Faults,
	"scale":                 Scale,
}

// Descriptions maps experiment ids to one-line summaries for -list
// output and docs.
var Descriptions = map[string]string{
	"table1":                "Table I: SMTP-triggered query-type mix",
	"fig2":                  "Fig. 2: operator distribution per dataset",
	"fig3":                  "Fig. 3: CDF of egress IPs per platform",
	"fig4":                  "Fig. 4: CDF of caches per platform",
	"fig5":                  "Fig. 5: IPs vs caches, open resolvers",
	"fig6":                  "Fig. 6: cache-to-IP ratio categories",
	"fig7":                  "Fig. 7: IPs vs caches, SMTP population",
	"fig8":                  "Fig. 8: IPs vs caches, ad-network population",
	"thm51":                 "Theorem 5.1: coupon-collector bound",
	"initvalidate":          "§V-B: init/validate coverage and success rate",
	"carpet":                "§V: carpet bombing vs packet loss",
	"timing":                "§IV-B3: timing side channel",
	"ablation-selection":    "ablation: selection strategy vs technique",
	"ablation-bypass":       "ablation: CNAME-chain vs names-hierarchy",
	"ablation-threshold":    "ablation: timing threshold under jitter",
	"ablation-forwarder":    "ablation: measurement through forwarders (§VI)",
	"ablation-crosstraffic": "ablation: cross traffic (§V-B caveat)",
	"poisoning":             "§II-A: poisoning difficulty vs cache count",
	"resilience":            "§II-B: failed-cache detection",
	"edns":                  "§II-C: EDNS0 adoption survey",
	"ttlconsistency":        "§II-C: TTL-consistency disambiguation",
	"classify":              "future work: selection-strategy classifier",
	"fingerprint":           "§II-C/§VI: resolver-software survey",
	"selectionshare":        "§IV-A: unpredictable-selection share",
	"cost":                  "Thm 5.1 cost: measured enumeration queries vs n·H_n",
	"faults":                "§V-B fault sweep: raw vs loss-compensated enumeration",
	"scale":                 "DES scale sweep: 1M stub clients on one event loop",
}

// IDs returns the registry keys in sorted order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given identifier under a
// background context; see RunContext.
func Run(id string, cfg Config) (*Report, error) {
	return RunContext(context.Background(), id, cfg)
}

// RunContext executes the experiment with the given identifier. It
// guarantees a cost-accounting registry is attached (installing a fresh
// one when cfg.Metrics is nil) and stamps the run's accounting delta into
// Report.Cost. Cancelling ctx aborts the run between trials.
func RunContext(ctx context.Context, id string, cfg Config) (*Report, error) {
	driver, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	before := cfg.Metrics.Snapshot()
	report, err := driver(ctx, cfg)
	if err != nil {
		return report, err
	}
	diff := cfg.Metrics.Snapshot().Diff(before)
	report.Cost = Cost{
		Probes:      diff.Counter("core.probes.sent"),
		ProbeErrors: diff.Counter("core.probes.errors"),
		Packets:     diff.Total("netsim.packets.sent") + diff.Total("netsim.packets.recvd"),
		PacketsLost: diff.Total("netsim.packets.lost"),
	}
	return report, nil
}
