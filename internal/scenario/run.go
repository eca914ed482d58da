package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dnscde/internal/adnet"
	"dnscde/internal/core"
	"dnscde/internal/detpar"
	"dnscde/internal/metrics"
	"dnscde/internal/platform"
	"dnscde/internal/simtest"
	"dnscde/internal/smtpsim"
)

// derive is detpar.Derive, aliased so compile/run share one spelling.
func derive(seed int64, salts ...uint64) int64 { return detpar.Derive(seed, salts...) }

// RunOptions tunes execution, not results: reports are byte-identical at
// any worker count and any shard count.
type RunOptions struct {
	// Workers bounds the trial fan-out; <= 0 uses GOMAXPROCS.
	Workers int
	// Shards is the number of event-loop lanes every trial's world runs
	// on (see simtest.Options.Shards); values below 1 mean one lane.
	// Reports are byte-identical at any shard count (DESIGN.md §12).
	Shards int
}

// Cost is the scenario's accounting total across all trials, read from
// the per-trial metrics registries.
type Cost struct {
	Probes      int64 `json:"probes"`
	ProbeErrors int64 `json:"probe_errors"`
	Packets     int64 `json:"packets"`
	PacketsLost int64 `json:"packets_lost"`
	Retries     int64 `json:"retries"`
	// FaultsInjected totals every netsim.faults.* event (servfail,
	// refused, truncated, duplicated, late, outage).
	FaultsInjected int64 `json:"faults_injected"`
}

// PlatformReport echoes one platform's declared shape — the ground truth
// the workloads measure against.
type PlatformReport struct {
	Name         string `json:"name"`
	Caches       int    `json:"caches"`
	Ingress      int    `json:"ingress"`
	Egress       int    `json:"egress"`
	Selector     string `json:"selector"`
	EgressPolicy string `json:"egress_policy"`
	Faults       string `json:"faults,omitempty"`
	ForwardTo    string `json:"forward_to,omitempty"`
}

// WorkloadReport is one workload's outcome aggregated over all trials.
type WorkloadReport struct {
	Kind        string `json:"kind"`
	Platform    string `json:"platform"`
	Queries     int    `json:"queries"`
	Replicates  int    `json:"replicates"`
	Compensated bool   `json:"compensated,omitempty"`
	Clients     int    `json:"clients,omitempty"`
	// TruthCaches is the target platform's declared cache count n.
	TruthCaches int `json:"truth_caches"`
	// MeanCaches is the measured ω averaged over trials (4 decimals);
	// CachesPerTrial lists each trial's ω in trial order.
	MeanCaches     float64 `json:"mean_caches"`
	CachesPerTrial []int   `json:"caches_per_trial"`
	// ProbesSent/ProbeErrors total the workload's probes across trials.
	ProbesSent  int64 `json:"probes_sent"`
	ProbeErrors int64 `json:"probe_errors"`
}

// Report is the canonical outcome of one scenario run. It contains no
// wall-clock or host-dependent fields; two runs of the same scenario at
// any worker counts marshal to identical bytes.
type Report struct {
	Scenario  string           `json:"scenario"`
	Seed      int64            `json:"seed"`
	Trials    int              `json:"trials"`
	Platforms []PlatformReport `json:"platforms"`
	Workloads []WorkloadReport `json:"workloads"`
	Cost      Cost             `json:"cost"`
}

// CanonicalJSON renders the report with stable key order (struct order),
// two-space indentation and a trailing newline — the byte form goldens
// are stored and diffed in.
func (r *Report) CanonicalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("scenario: encoding report: %w", err)
	}
	return buf.Bytes(), nil
}

// workloadOut is one workload's outcome within a single trial.
type workloadOut struct {
	caches      int
	probesSent  int64
	probeErrors int64
}

// trialOut is one trial's contribution, merged in trial order.
type trialOut struct {
	workloads []workloadOut
	cost      Cost
	metrics   metrics.Snapshot
}

// TrialWorkload is one workload's outcome within one trial, as exposed
// to detail consumers (the campaign engine's per-trial result rows).
type TrialWorkload struct {
	Caches      int
	ProbesSent  int64
	ProbeErrors int64
}

// TrialDetail is one trial's full outcome: per-workload measurements,
// the cost roll-up, and the trial's raw accounting snapshot for callers
// that merge registries across runs.
type TrialDetail struct {
	Workloads []TrialWorkload
	Cost      Cost
	Metrics   metrics.Snapshot
}

// Run executes the scenario: s.Trials independent trials, each building
// a fresh simulated Internet with every declared platform and executing
// every workload in declaration order, fanned out on the detpar pool.
// The report aggregates per-workload outcomes and cost accounting in
// trial order and is byte-identical at any opts.Workers value.
func Run(ctx context.Context, s *Scenario, opts RunOptions) (*Report, error) {
	report, _, err := RunDetailed(ctx, s, opts)
	return report, err
}

// RunDetailed is Run plus the per-trial outcomes, in trial order. The
// report is identical to Run's; the detail slice exposes what each trial
// measured (and its accounting snapshot) without touching the canonical
// report shape the goldens lock.
func RunDetailed(ctx context.Context, s *Scenario, opts RunOptions) (*Report, []TrialDetail, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	trials, err := detpar.Map(ctx, s.Seed, s.Trials, opts.Workers,
		func(i int, rng *rand.Rand) (trialOut, error) {
			return s.runTrial(ctx, rng.Int63(), opts.Shards)
		})
	if err != nil {
		return nil, nil, err
	}
	report, details := s.assemble(trials)
	return report, details, nil
}

// assemble folds per-trial outcomes (in trial order) into the canonical
// report plus the detail slice. Shared by the straight-through runner and
// the checkpoint/restore round-trip runner, so both produce reports from
// identical code.
func (s *Scenario) assemble(trials []trialOut) (*Report, []TrialDetail) {
	report := &Report{Scenario: s.Name, Seed: s.Seed, Trials: s.Trials}
	for _, pd := range s.Platforms {
		report.Platforms = append(report.Platforms, PlatformReport{
			Name:         pd.Name,
			Caches:       pd.Caches,
			Ingress:      pd.Ingress,
			Egress:       pd.Egress,
			Selector:     pd.Selector,
			EgressPolicy: pd.EgressPolicy,
			Faults:       pd.Faults.String(),
			ForwardTo:    pd.ForwardTo,
		})
	}
	for wi, wd := range s.Workloads {
		wr := WorkloadReport{
			Kind:        string(wd.Kind),
			Platform:    wd.Platform,
			Queries:     wd.Queries,
			Replicates:  wd.Replicates,
			Compensated: wd.Compensated,
			Clients:     wd.Clients,
			TruthCaches: s.platformCaches(wd.Platform),
		}
		sum := 0
		for _, tr := range trials {
			out := tr.workloads[wi]
			sum += out.caches
			wr.CachesPerTrial = append(wr.CachesPerTrial, out.caches)
			wr.ProbesSent += out.probesSent
			wr.ProbeErrors += out.probeErrors
		}
		wr.MeanCaches = round4(float64(sum) / float64(s.Trials))
		report.Workloads = append(report.Workloads, wr)
	}
	details := make([]TrialDetail, 0, len(trials))
	for _, tr := range trials {
		report.Cost.Probes += tr.cost.Probes
		report.Cost.ProbeErrors += tr.cost.ProbeErrors
		report.Cost.Packets += tr.cost.Packets
		report.Cost.PacketsLost += tr.cost.PacketsLost
		report.Cost.Retries += tr.cost.Retries
		report.Cost.FaultsInjected += tr.cost.FaultsInjected
		d := TrialDetail{Cost: tr.cost, Metrics: tr.metrics}
		for _, out := range tr.workloads {
			d.Workloads = append(d.Workloads, TrialWorkload{
				Caches:      out.caches,
				ProbesSent:  out.probesSent,
				ProbeErrors: out.probeErrors,
			})
		}
		details = append(details, d)
	}
	return report, details
}

// round4 rounds to 4 decimals so the canonical JSON never encodes
// floating-point noise.
func round4(x float64) float64 { return math.Round(x*10000) / 10000 }

// platformCaches returns the declared cache count of a named platform
// (validated to exist).
func (s *Scenario) platformCaches(name string) int {
	for _, p := range s.Platforms {
		if p.Name == name {
			return p.Caches
		}
	}
	return 0
}

// runTrial builds one fresh world and executes every workload. The whole
// trial runs as one event-chained population on the world's scheduler:
// the workload loop becomes a des.Process, so every probe it issues — and
// every recursion the target platform performs — interleaves on the
// world's event-loop lanes.
func (s *Scenario) runTrial(ctx context.Context, seed int64, shards int) (trialOut, error) {
	reg := metrics.New()
	w, err := simtest.New(simtest.Options{Seed: seed, Metrics: reg, Shards: shards})
	if err != nil {
		return trialOut{}, err
	}
	plats, err := s.compileTrial(w, seed)
	if err != nil {
		return trialOut{}, err
	}
	out := trialOut{workloads: make([]workloadOut, len(s.Workloads))}
	err = w.RunSequenced(ctx, func(ctx context.Context) error {
		for wi := range s.Workloads {
			wd := &s.Workloads[wi]
			res, err := runWorkload(ctx, w, plats[wd.Platform], wd)
			if err != nil {
				return fmt.Errorf("scenario: workload %s on %s: %w", wd.Kind, wd.Platform, err)
			}
			out.workloads[wi] = res
		}
		return nil
	})
	if err != nil {
		return trialOut{}, err
	}
	snap := reg.Snapshot()
	out.cost = CostFromSnapshot(snap)
	out.metrics = snap
	return out, nil
}

// CostFromSnapshot derives the cost roll-up from an accounting snapshot;
// the scenario runner and the campaign progress API share this mapping.
func CostFromSnapshot(snap metrics.Snapshot) Cost {
	return Cost{
		Probes:      snap.Counter("core.probes.sent"),
		ProbeErrors: snap.Counter("core.probes.errors"),
		Packets:     snap.Total("netsim.packets.sent") + snap.Total("netsim.packets.recvd"),
		PacketsLost: snap.Total("netsim.packets.lost"),
		Retries:     snap.Counter("netsim.retries"),
		FaultsInjected: snap.Counter("netsim.faults.servfail") +
			snap.Counter("netsim.faults.refused") +
			snap.Counter("netsim.faults.truncated") +
			snap.Counter("netsim.faults.duplicated") +
			snap.Counter("netsim.faults.late") +
			snap.Counter("netsim.faults.outage"),
	}
}

// runWorkload executes one workload against its target platform.
// ErrAllProbesFailed is tolerated (heavy fault profiles may starve a
// whole arm); the result then reports what was observed.
func runWorkload(ctx context.Context, w *simtest.World, target *platform.Platform, wd *WorkloadDef) (workloadOut, error) {
	ingress := target.Config().IngressIPs[0]
	opts := core.EnumOptions{Queries: wd.Queries, Replicates: wd.Replicates}

	var (
		res core.EnumResult
		err error
	)
	switch wd.Kind {
	case KindDirect:
		prober := w.DirectProber(ingress)
		if wd.Compensated {
			res, err = core.EnumerateDirectCompensated(ctx, prober, w.Infra, opts, core.CompensateOptions{})
		} else {
			res, err = core.EnumerateDirect(ctx, prober, w.Infra, opts)
		}
	case KindChain:
		res, err = core.EnumerateChain(ctx, core.NewIndirectProber(w.NewStub(ingress)), w.Infra, opts)
	case KindHierarchy:
		res, err = core.EnumerateHierarchy(ctx, core.NewIndirectProber(w.NewStub(ingress)), w.Infra, opts)
	case KindTiming:
		var tres core.TimingResult
		tres, err = core.EnumerateTimingDirect(ctx, w.DirectProber(ingress), w.Infra,
			core.TimingOptions{CountProbes: wd.Queries})
		res = core.EnumResult{Caches: tres.Caches, ProbesSent: tres.ProbesSent}
	case KindSMTP:
		policy := smtpsim.CheckPolicy{SPFTXT: true, DMARC: true, MXBounce: true}
		server := smtpsim.NewServer(wd.Platform+".example", policy, w.NewStub(ingress))
		res, err = core.EnumerateChain(ctx, smtpsim.NewProber(server), w.Infra, opts)
	case KindAdnet:
		clients := make([]*adnet.Client, 0, wd.Clients)
		for i := 0; i < wd.Clients; i++ {
			clients = append(clients, adnet.NewClient(i, 0, w.NewStub(ingress)))
		}
		res, err = core.EnumerateHierarchy(ctx, adnet.NewClientPool(clients), w.Infra, opts)
	default:
		return workloadOut{}, fmt.Errorf("unknown workload kind %q", wd.Kind)
	}
	if err != nil && !errors.Is(err, core.ErrAllProbesFailed) {
		return workloadOut{}, err
	}
	return workloadOut{
		caches:      res.Caches,
		probesSent:  int64(res.ProbesSent),
		probeErrors: int64(res.ProbeErrors),
	}, nil
}
