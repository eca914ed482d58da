package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dnscde/internal/adnet"
	"dnscde/internal/core"
	"dnscde/internal/detpar"
	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
	"dnscde/internal/population"
	"dnscde/internal/simtest"
	"dnscde/internal/smtpsim"
)

// The survey workload is the paper's measurement pipeline (the fig3 path
// of internal/experiments/measure.go) rebuilt from public calls: three
// populations are generated and deployed, one fresh one-lane world per
// population, and every platform is measured through its channel with
// adaptive enumeration and adaptive egress discovery. One op is one
// platform fully measured, on a closed-loop detpar pool of nproc
// workers.

const (
	// surveyPerKind is the platforms generated per population. A run
	// measures whole rounds of three populations until the timed phase
	// has lasted its seconds and at least surveyMinOps platforms are
	// measured, so op_ms_p90 has ten samples beyond it. Rounds of 51 are
	// a quarter the cost of rounds of 102 (the readouts grow with the
	// log), so a run averages over several independent rounds.
	surveyPerKind = 17
	surveyMinOps  = 100
	// surveyAdClients is the ad-network client pool per ISP, as in the
	// fig3 pipeline.
	surveyAdClients = 128
	// Egress discovery stops after this many probes without a new
	// address, or at the probe cap.
	surveyEgressWindow = 32
	surveyEgressCap    = 4096
	// surveyPopulationSeed fixes the population's shapes (fig3's default
	// seed). A population drawn from the workload seed makes the survey's
	// host time a property of the seed: at 34 platforms per population,
	// ops_per_s spread
	// 5.1 to 9.3 over four seeds, because a few heavy platforms (many
	// egress IPs, every SMTP check) dominate a round. The workload seed
	// drives everything else.
	surveyPopulationSeed = 2017
	saltSurveyRound      = 0x5e
	saltSurveyPlatform   = 0x5f
)

var surveyKinds = []population.Kind{population.OpenResolvers, population.Enterprises, population.ISPs}

// surveyTarget is one deployed platform with the prober of its channel.
type surveyTarget struct {
	kind   population.Kind
	world  *simtest.World
	index  int // position in its population: the Infra shard it measures through
	spec   population.NetworkSpec
	prober core.Prober
}

// surveyRound is one deployed set of populations.
type surveyRound struct {
	reg     *metrics.Registry
	worlds  []*simtest.World
	targets []surveyTarget
}

// deploySurvey generates the populations and deploys every platform,
// mirroring the fig3 pipeline: one world per population, all worlds
// seeded seed+1. Each platform's seed (its selector and cache-pick
// streams) derives from seed and its index.
func deploySurvey(seed int64, perKind int, tk *track, names *layerNames) (*surveyRound, error) {
	rng := rand.New(rand.NewSource(surveyPopulationSeed))
	rd := &surveyRound{reg: metrics.New()}
	for _, kind := range surveyKinds {
		w, err := simtest.New(simtest.Options{Seed: seed + 1, Metrics: rd.reg, Shards: 1})
		if err != nil {
			return nil, err
		}
		rd.worlds = append(rd.worlds, w)
		tk.begin(names.generate)
		ds := population.Generate(kind, perKind, rng)
		tk.end()
		for i, spec := range ds.Specs {
			tk.begin(names.deploy)
			plat, err := deployPlatform(w, spec, detpar.Derive(seed, saltSurveyPlatform, uint64(i)))
			tk.end()
			if err != nil {
				return nil, fmt.Errorf("deploying %s: %w", spec.Name, err)
			}
			ingress := plat.Config().IngressIPs[0]
			var prober core.Prober
			switch kind {
			case population.OpenResolvers:
				prober = w.DirectProber(ingress)
			case population.Enterprises:
				srv := smtpsim.NewServer(spec.Name+".example", spec.SMTPPolicy, w.NewStub(ingress))
				prober = smtpsim.NewProber(srv)
			default:
				clients := make([]*adnet.Client, 0, surveyAdClients)
				for c := 0; c < surveyAdClients; c++ {
					clients = append(clients, adnet.NewClient(i*1000+c, 0, w.NewStub(ingress)))
				}
				prober = adnet.NewClientPool(clients)
			}
			rd.targets = append(rd.targets, surveyTarget{kind: kind, world: w, index: i, spec: spec, prober: prober})
		}
	}
	return rd, nil
}

// deployPlatform realises a spec as a platform with its link profile,
// selector, cache policy and EDNS behaviour.
func deployPlatform(w *simtest.World, spec population.NetworkSpec, seed int64) (*platform.Platform, error) {
	return w.NewPlatform(simtest.PlatformSpec{
		Name:    spec.Name,
		Caches:  spec.Caches,
		Ingress: spec.Ingress,
		Egress:  spec.Egress,
		Seed:    seed,
		Profile: netsim.LinkProfile{OneWay: spec.Latency, Jitter: spec.Jitter, Loss: spec.Loss},
		Mutate: func(c *platform.Config) {
			c.Selector = spec.MakeSelector(seed)
			c.CachePolicy = spec.CachePolicy()
			c.EDNS = spec.EDNS
		},
	})
}

// surveyOutcome is what measuring one platform produced.
type surveyOutcome struct {
	caches, egress int
	err            error
	ms             float64
}

// measureTarget runs the fig3 measurement on one platform: enumeration
// with the carpet-bombing factor for the platform's loss, then egress
// discovery. With a track, spans wrap each core call and every probe.
func measureTarget(ctx context.Context, t surveyTarget, tk *track, names *layerNames) surveyOutcome {
	in := t.world.Infra.Shard(t.index)
	prober := t.prober
	if tk != nil {
		prober = &tracedProber{inner: prober, tk: tk, name: names.probe}
	}
	perExchangeLoss := 1 - (1-t.spec.Loss)*(1-t.spec.Loss)
	replicates := core.CarpetBombingFactor(perExchangeLoss, 0.99)

	var o surveyOutcome
	tk.begin(names.enum)
	enum, err := core.EnumerateAdaptive(ctx, prober, in, core.AdaptiveOptions{Replicates: replicates})
	tk.end()
	if err != nil {
		o.err = fmt.Errorf("enumerating %s: %w", t.spec.Name, err)
		return o
	}
	o.caches = enum.Caches
	if enum.Caches == 0 {
		return o // no observable queries: checkSurvey decides whether that is modelled
	}
	tk.begin(names.egress)
	eg, err := core.DiscoverEgressAdaptive(ctx, prober, in, surveyEgressWindow, surveyEgressCap)
	tk.end()
	if err != nil {
		o.err = fmt.Errorf("egress discovery %s: %w", t.spec.Name, err)
		return o
	}
	o.egress = len(eg.IPs)
	return o
}

// surveyVerdict classifies one measured platform.
type surveyVerdict int

const (
	verdictExact    surveyVerdict = iota // measured caches equal ground truth
	verdictUnder                         // measured fewer caches than exist
	verdictModelled                      // an SMTP platform whose checks trigger no queries
	verdictFailed                        // unexpected error, or a result above ground truth
)

// checkSurvey is the survey's output check: no unexpected error, and
// measured caches and egress IPs never exceed the ground truth.
func checkSurvey(kind population.Kind, spec population.NetworkSpec, o surveyOutcome) (surveyVerdict, string) {
	switch {
	case o.err != nil:
		return verdictFailed, o.err.Error()
	case o.caches == 0 && kind == population.Enterprises:
		return verdictModelled, ""
	case o.caches == 0:
		return verdictFailed, fmt.Sprintf("%s: channel triggered no observable queries", spec.Name)
	case o.caches > spec.Caches:
		return verdictFailed, fmt.Sprintf("%s: measured %d caches, ground truth %d", spec.Name, o.caches, spec.Caches)
	case o.egress > spec.Egress:
		return verdictFailed, fmt.Sprintf("%s: measured %d egress IPs, ground truth %d", spec.Name, o.egress, spec.Egress)
	case o.caches == spec.Caches:
		return verdictExact, ""
	default:
		return verdictUnder, ""
	}
}

// tracedProber is the timing decorator: it spans every Probe call so
// core's own time (readouts over the authns logs) is the core span minus
// the probe spans inside it.
type tracedProber struct {
	inner core.Prober
	tk    *track
	name  int
}

func (p *tracedProber) Probe(ctx context.Context, name string, qtype dnswire.Type) (core.ProbeResult, error) {
	p.tk.begin(p.name)
	defer p.tk.end()
	return p.inner.Probe(ctx, name, qtype)
}

func (p *tracedProber) Direct() bool { return p.inner.Direct() }

// runSurvey measures whole rounds until the timed phase has lasted
// cfg.seconds and enough platforms are measured; exact_share and every
// count come from round 0, so they are fixed per seed.
func runSurvey(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	names := cfg.ln
	var setupTk *track
	if cfg.tr != nil {
		setupTk = cfg.tr.track(-1)
	}
	var rd *surveyRound
	for i := 0; i < setupReps; i++ {
		rd = nil // let the previous set-up go before building the next
		start := now()
		var err error
		rd, err = deploySurvey(cfg.seed, cfg.surveyPerKind, setupTk, names)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, now().Sub(start).Seconds())
	}

	cpu0 := readCPU()
	for round := 0; ; round++ {
		if round > 0 {
			var err error
			rd, err = deploySurvey(detpar.Derive(cfg.seed, saltSurveyRound, uint64(round)), cfg.surveyPerKind, setupTk, names)
			if err != nil {
				return nil, err
			}
		}
		outs := make([]surveyOutcome, len(rd.targets))
		tks := make([]*track, len(rd.targets))
		if cfg.tr != nil {
			for i := range tks {
				tks[i] = cfg.tr.track(int64(rep.ops + i))
			}
		}
		rep.timed.begin()
		err := detpar.Each(ctx, len(rd.targets), cfg.workers, func(i int) error {
			start := now()
			tks[i].begin(names.op)
			outs[i] = measureTarget(ctx, rd.targets[i], tks[i], names)
			tks[i].end()
			outs[i].ms = ms(now().Sub(start))
			return nil
		})
		rep.timed.end()
		if err != nil {
			return nil, err
		}
		for i, o := range outs {
			t := rd.targets[i]
			rep.attempted++
			rep.ops++
			rep.opMS = append(rep.opMS, o.ms)
			v, why := checkSurvey(t.kind, t.spec, o)
			if v == verdictFailed {
				rep.fail(why)
			}
			if round == 0 && (v == verdictExact || v == verdictUnder) {
				rep.exactOf++
				if v == verdictExact {
					rep.exact++
				}
			}
		}
		if round == 0 {
			surveyCounts(rep, rd)
		}
		if rep.timed.wall.Seconds() >= cfg.seconds && rep.ops >= cfg.surveyMinOps {
			break
		}
	}
	rep.gcShare = gcShare(cpu0, readCPU())
	if cfg.tr != nil {
		surveyLayers(rep, cfg.tr)
	}
	return rep, nil
}

// surveyCounts records round 0's per-layer counts, which repeat exactly
// for a seed.
func surveyCounts(rep *report, rd *surveyRound) {
	snap := rd.reg.Snapshot()
	platforms := float64(len(rd.targets))
	probes := float64(snap.Counter("core.probes.sent"))
	hits := float64(snap.Total("dnscache.hits"))
	misses := float64(snap.Total("dnscache.misses"))
	var logs float64
	for _, w := range rd.worlds {
		logs += float64(w.Infra.Parent.Log().Len() + w.Infra.Child.Log().Len())
	}
	rep.layers["core.probes_per_op"] = ratio(probes, platforms)
	rep.layers["authns.log_entries"] = ratio(logs, float64(len(rd.worlds)))
	rep.layers["dnscache.hit_ratio"] = ratio(hits, hits+misses)
	rep.layers["platform.recursions_per_probe"] = ratio(float64(snap.Total("platform.recursions")), probes)
	rep.layers["netsim.packets_per_op"] = ratio(float64(snap.Total("netsim.packets.sent")+snap.Total("netsim.packets.recvd")), platforms)
}

// surveyLayers derives the survey's span metrics.
func surveyLayers(rep *report, tr *tracer) {
	enum := tr.agg("core.EnumerateAdaptive")
	egress := tr.agg("core.DiscoverEgressAdaptive")
	probe := tr.agg("core.Prober.Probe")
	rep.layers["core.enum_ms"] = enum.mean(time.Millisecond)
	rep.layers["core.egress_ms"] = egress.mean(time.Millisecond)
	coreTime := float64(enum.total + egress.total)
	rep.layers["core.readout_share"] = ratio(coreTime-float64(probe.total), coreTime)
	rep.layers["probe.us"] = probe.mean(time.Microsecond)
	rep.layers["population.generate_ms"] = tr.agg("population.Generate").mean(time.Millisecond)
	rep.layers["simtest.deploy_ms"] = tr.agg("simtest.World.NewPlatform").mean(time.Millisecond)
}
