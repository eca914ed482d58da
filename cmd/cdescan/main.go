// Command cdescan is the CDE measurement tool: it discovers and
// enumerates the caches of a DNS resolution platform.
//
// Simulation mode (default) builds a platform with a known configuration
// and measures it end-to-end — the zero-setup demonstration:
//
//	cdescan -caches 4 -ingress 2 -egress 6 -selector random -technique all
//
// UDP mode probes a real resolver. The prober needs its own domain with
// nameservers it can observe (run cmd/cdeserver there); latency-only
// probing works without one:
//
//	cdescan -mode udp -target 192.0.2.53:53 -name www.example.com -probes 20
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"sort"
	"strings"
	"time"

	"dnscde/internal/core"
	"dnscde/internal/detpar"
	"dnscde/internal/dnswire"
	"dnscde/internal/loadbal"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
	"dnscde/internal/scenario"
	"dnscde/internal/simtest"
	"dnscde/internal/trace"
	"dnscde/internal/udpnet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("cdescan", flag.ContinueOnError)
	var (
		mode      = fs.String("mode", "sim", "sim or udp")
		technique = fs.String("technique", "all", "direct, chain, hierarchy, timing, mapping, egress, classify, survey, trace or all (sim mode)")
		caches    = fs.Int("caches", 4, "simulated platform cache count")
		ingress   = fs.Int("ingress", 2, "simulated platform ingress IPs")
		egress    = fs.Int("egress", 3, "simulated platform egress IPs")
		selector  = fs.String("selector", "random", "cache selector: "+strings.Join(loadbal.Names(), ", "))
		loss      = fs.Float64("loss", 0.01, "simulated per-packet loss")
		faults    = fs.String("faults", "", "sim mode: fault profile for the platform link, e.g. 'burst=0.11:4,servfail=0.02,truncate=0.1'")
		seed      = fs.Int64("seed", 1, "simulation seed")
		scans     = fs.Int("scans", 1, "sim mode: independent platforms to scan (each gets a derived seed)")
		workers   = fs.Int("workers", 0, "sim mode: worker count for -scans > 1 (0 = GOMAXPROCS); output is byte-identical at any value")
		shards    = fs.Int("shards", 1, "sim mode: event-loop lane count for the sharded simulation scheduler; output is byte-identical at any value >= 1")
		scnFile   = fs.String("scenario", "", "sim mode: run a declarative scenario file (*.scn) instead of the flag-built platform; prints the canonical report")
		ckptOut   = fs.String("checkpoint", "", "sim mode with -scenario: run trial 0 to its midpoint barrier and write the world snapshot to this file")
		ckptIn    = fs.String("restore-from", "", "sim mode with -scenario: restore a snapshot written by -checkpoint and finish the trial, printing its outcome as JSON")

		target = fs.String("target", "", "udp mode: resolver address ip:port")
		name   = fs.String("name", "", "udp mode: name to probe")
		probes = fs.Int("probes", 10, "udp mode: probe count")
		server = fs.String("server", "", "udp mode: cdeserver address ip:port for control-zone readout (full enumeration)")
		ctl    = fs.String("ctl", "", "udp mode: control-zone origin, e.g. ctl.cache.example (default derived from -name's domain)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	faultProfile, err := netsim.ParseFaultProfile(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdescan: -faults: %v\n", err)
		return 2
	}
	if *shards <= 0 {
		fmt.Fprintf(os.Stderr, "cdescan: -shards must be >= 1, have %d\n", *shards)
		fs.Usage()
		return 2
	}
	if (*ckptOut != "" || *ckptIn != "") && *scnFile == "" {
		fmt.Fprintf(os.Stderr, "cdescan: -checkpoint and -restore-from require -scenario\n")
		fs.Usage()
		return 2
	}
	switch *mode {
	case "sim":
		if *scnFile != "" {
			sc, err := scenario.LoadFile(*scnFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cdescan: %v\n", err)
				return 2
			}
			var runErr error
			switch {
			case *ckptOut != "":
				runErr = writeCheckpoint(out, sc, *ckptOut, *shards)
			case *ckptIn != "":
				runErr = restoreCheckpoint(out, sc, *ckptIn, *shards)
			default:
				runErr = runScenario(out, sc, *workers, *shards)
			}
			if runErr != nil {
				fmt.Fprintf(os.Stderr, "cdescan: %v\n", runErr)
				return 1
			}
			return 0
		}
		if err := runSims(out, *technique, *caches, *ingress, *egress, *selector, *loss, faultProfile, *seed, *scans, *workers, *shards); err != nil {
			fmt.Fprintf(os.Stderr, "cdescan: %v\n", err)
			return 1
		}
	case "udp":
		if err := runUDP(out, *target, *name, *probes, *server, *ctl); err != nil {
			fmt.Fprintf(os.Stderr, "cdescan: %v\n", err)
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "cdescan: unknown mode %q\n", *mode)
		return 2
	}
	return 0
}

// runScenario executes a declarative scenario (internal/scenario) and
// prints its canonical JSON report — the same bytes the conformance
// harness diffs against the goldens.
func runScenario(out io.Writer, sc *scenario.Scenario, workers, shards int) error {
	report, err := scenario.Run(context.Background(), sc, scenario.RunOptions{Workers: workers, Shards: shards})
	if err != nil {
		return err
	}
	b, err := report.CanonicalJSON()
	if err != nil {
		return err
	}
	_, err = out.Write(b)
	return err
}

// writeCheckpoint runs the scenario's first trial up to its midpoint
// workload barrier and writes the frozen world snapshot to path. The
// snapshot is self-describing: -restore-from needs only the same
// scenario file to finish the trial.
func writeCheckpoint(out io.Writer, sc *scenario.Scenario, path string, shards int) error {
	barrier := sc.MidpointBarrier()
	snap, err := scenario.CheckpointTrial(context.Background(), sc, 0, barrier, shards)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "checkpoint: scenario %s trial 0 frozen at workload barrier %d/%d (%d bytes) -> %s\n",
		sc.Name, barrier, len(sc.Workloads), len(snap), path)
	return nil
}

// restoreCheckpoint thaws a snapshot written by -checkpoint, runs the
// remaining workloads and prints the finished trial as JSON — the same
// detail a straight-through run of that trial would report.
func restoreCheckpoint(out io.Writer, sc *scenario.Scenario, path string, shards int) error {
	snap, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	detail, trial, err := scenario.ResumeTrial(context.Background(), sc, snap, shards)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Scenario string
		Trial    int
		Detail   scenario.TrialDetail
	}{sc.Name, trial, detail}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// runSims scans one or more independent simulated platforms. With
// -scans > 1 each scan owns a full world seeded from the detpar stream
// and runs on a bounded worker pool; outputs are merged in scan order,
// so the combined report is byte-identical at any -workers value.
func runSims(out io.Writer, technique string, caches, ingress, egress int, selector string, loss float64, faults *netsim.FaultProfile, seed int64, scans, workers, shards int) error {
	if scans <= 1 {
		return runSim(out, technique, caches, ingress, egress, selector, loss, faults, seed, shards)
	}
	outputs, err := detpar.Map(context.Background(), seed, scans, workers,
		func(i int, rng *rand.Rand) (string, error) {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "--- scan %d/%d ---\n", i+1, scans)
			if err := runSim(&buf, technique, caches, ingress, egress, selector, loss, faults, rng.Int63(), shards); err != nil {
				return "", fmt.Errorf("scan %d: %w", i+1, err)
			}
			return buf.String(), nil
		})
	if err != nil {
		return err
	}
	for _, s := range outputs {
		fmt.Fprint(out, s)
	}
	return nil
}

func runSim(out io.Writer, technique string, caches, ingress, egress int, selector string, loss float64, faults *netsim.FaultProfile, seed int64, shards int) (err error) {
	sel, err := loadbal.New(selector, seed)
	if err != nil {
		return err
	}
	reg := metrics.New()
	w, err := simtest.New(simtest.Options{Seed: seed, Metrics: reg, Shards: shards})
	if err != nil {
		return err
	}
	// Every run ends with what it cost, whichever technique path it took.
	defer func() {
		if err == nil {
			printCostSummary(out, reg.Snapshot())
		}
	}()
	plat, err := w.NewPlatform(simtest.PlatformSpec{
		Name: "target", Caches: caches, Ingress: ingress, Egress: egress, Seed: seed,
		Profile: netsim.LinkProfile{OneWay: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: loss, Faults: faults},
		Mutate:  func(c *platform.Config) { c.Selector = sel },
	})
	if err != nil {
		return err
	}
	gt := plat.GroundTruth()
	fmt.Fprintf(out, "target platform: caches=%d ingress=%d egress=%d selector=%s loss=%.1f%%\n",
		gt.Caches, gt.IngressIPs, gt.EgressIPs, gt.Selector, loss*100)
	if faults != nil {
		fmt.Fprintf(out, "injected faults: %s\n", faults)
	}
	fmt.Fprintln(out)

	// The whole technique sweep is one sequential probe flow; on a sharded
	// world (-shards >= 1) RunSequenced rides it on the event-loop lanes,
	// with byte-identical output.
	return w.RunSequenced(context.Background(), func(ctx context.Context) error {
		return scanTechniques(ctx, out, w, plat, technique, loss)
	})
}

// scanTechniques runs the selected technique(s) against the platform.
func scanTechniques(ctx context.Context, out io.Writer, w *simtest.World, plat *platform.Platform, technique string, loss float64) error {
	ingressIP := plat.Config().IngressIPs[0]
	prober := w.DirectProber(ingressIP)
	k := core.CarpetBombingFactor(1-(1-loss)*(1-loss), 0.99)

	runAll := technique == "all"
	if runAll || technique == "direct" {
		res, err := core.EnumerateDirect(ctx, prober, w.Infra, core.EnumOptions{Replicates: k})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "direct enumeration (§IV-B1):     %d caches  (%d probes, %d lost)\n",
			res.Caches, res.ProbesSent, res.ProbeErrors)
	}
	if runAll || technique == "chain" {
		indirect := core.NewIndirectProber(w.NewStub(ingressIP))
		res, err := core.EnumerateChain(ctx, indirect, w.Infra, core.EnumOptions{Replicates: k})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "CNAME-chain bypass (§IV-B2a):    %d caches  (%d probes, %d lost)\n",
			res.Caches, res.ProbesSent, res.ProbeErrors)
	}
	if runAll || technique == "hierarchy" {
		indirect := core.NewIndirectProber(w.NewStub(ingressIP))
		res, err := core.EnumerateHierarchy(ctx, indirect, w.Infra, core.EnumOptions{Replicates: k})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "names-hierarchy bypass (§IV-B2b): %d caches  (%d probes, %d lost)\n",
			res.Caches, res.ProbesSent, res.ProbeErrors)
	}
	if runAll || technique == "timing" {
		res, err := core.EnumerateTimingDirect(ctx, prober, w.Infra, core.TimingOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "timing side channel (§IV-B3):    %d caches  (threshold %v)\n",
			res.Caches, res.Threshold)
	}
	if runAll || technique == "egress" {
		res, err := core.DiscoverEgressAdaptive(ctx, prober, w.Infra, 32, 4096)
		if err != nil {
			return err
		}
		sort.Slice(res.IPs, func(i, j int) bool { return res.IPs[i].Less(res.IPs[j]) })
		fmt.Fprintf(out, "egress discovery (§IV-B1b):      %d egress IPs: %v\n", len(res.IPs), res.IPs)
	}
	if technique == "trace" {
		session, err := w.Infra.NewHierarchySession(1)
		if err != nil {
			return err
		}
		for round, label := range []string{"cold", "warm"} {
			tr := trace.New()
			tctx := trace.With(ctx, tr)
			conn := w.Net.Bind(w.NextClientAddr())
			if _, _, err := conn.Exchange(tctx, dnswire.NewQuery(uint16(round+1), session.ProbeName(1), dnswire.TypeA), ingressIP); err != nil {
				return err
			}
			fmt.Fprintf(out, "%s resolution of %s:\n%s\n", label, session.ProbeName(1), tr)
		}
		return nil
	}
	if technique == "survey" {
		extras := make([]core.Prober, 0, 16)
		for i := 0; i < 16; i++ {
			extras = append(extras, w.DirectProber(ingressIP))
		}
		survey, err := core.SurveyPlatform(ctx, prober, w.Infra, core.SurveyOptions{ExtraVantages: extras})
		if err != nil {
			return err
		}
		fmt.Fprint(out, survey.Render())
		return nil
	}
	if runAll || technique == "classify" {
		extras := make([]core.Prober, 0, 16)
		for i := 0; i < 16; i++ {
			extras = append(extras, w.DirectProber(ingressIP))
		}
		res, err := core.ClassifySelection(ctx, prober, w.Infra, core.ClassifyOptions{ExtraVantages: extras})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "selection classifier (future work): %s (ω_distinct=%d, ω_identical=%d, sequential %d/%d)\n",
			res.Class, res.Caches, res.IdenticalKeyCaches, res.SequentialRuns, res.Runs)
	}
	if runAll || technique == "mapping" {
		res, err := core.MapIngressClusters(ctx, w.Infra, plat.Config().IngressIPs,
			func(ip netip.Addr) core.Prober { return w.DirectProber(ip) }, core.MappingOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "ingress→cache clusters (§IV-B1b): %d cluster(s)\n", len(res.Clusters))
		for i, cluster := range res.Clusters {
			fmt.Fprintf(out, "  cluster %d: %v\n", i, cluster)
		}
	}
	return nil
}

// printCostSummary reports what a simulation run spent, read from the
// probe-cost accounting registry rather than per-technique bookkeeping.
func printCostSummary(out io.Writer, snap metrics.Snapshot) {
	fmt.Fprintf(out, "\ncost summary (internal/metrics):\n")
	fmt.Fprintf(out, "  probes sent:      %d (%d errors)\n",
		snap.Counter("core.probes.sent"), snap.Counter("core.probes.errors"))
	fmt.Fprintf(out, "  packets on wire:  %d sent, %d recvd, %d lost, %d retried\n",
		snap.Counter("netsim.packets.sent"), snap.Counter("netsim.packets.recvd"),
		snap.Counter("netsim.packets.lost"), snap.Counter("netsim.retries"))
	fmt.Fprintf(out, "  platform caches:  %d hits, %d misses, %d expired\n",
		snap.Total("dnscache.hits"), snap.Total("dnscache.misses"), snap.Total("dnscache.expired"))
	fmt.Fprintf(out, "  authns arrivals:  %d queries\n", snap.Counter("authns.queries"))
	injected := snap.Counter("netsim.faults.servfail") + snap.Counter("netsim.faults.refused") +
		snap.Counter("netsim.faults.truncated") + snap.Counter("netsim.faults.duplicated") +
		snap.Counter("netsim.faults.late") + snap.Counter("netsim.faults.outage")
	if injected > 0 {
		fmt.Fprintf(out, "  injected faults:  %d servfail, %d refused, %d truncated, %d duplicated, %d late, %d outage\n",
			snap.Counter("netsim.faults.servfail"), snap.Counter("netsim.faults.refused"),
			snap.Counter("netsim.faults.truncated"), snap.Counter("netsim.faults.duplicated"),
			snap.Counter("netsim.faults.late"), snap.Counter("netsim.faults.outage"))
	}
}

func runUDP(out io.Writer, target, name string, probes int, server, ctl string) error {
	if target == "" || name == "" {
		return fmt.Errorf("udp mode requires -target and -name")
	}
	addrPort, err := netip.ParseAddrPort(target)
	if err != nil {
		return fmt.Errorf("parsing -target: %w", err)
	}
	tr := &udpnet.Transport{Port: addrPort.Port()}
	ctx := context.Background()

	fmt.Fprintf(out, "probing %v for %s (%d probes)\n", addrPort, name, probes)
	var rtts []time.Duration
	for i := 0; i < probes; i++ {
		query := dnswire.NewQuery(uint16(i+1), name, dnswire.TypeA)
		resp, rtt, err := tr.Exchange(ctx, query, addrPort.Addr())
		if err != nil {
			fmt.Fprintf(out, "  probe %2d: %v\n", i+1, err)
			continue
		}
		rtts = append(rtts, rtt)
		fmt.Fprintf(out, "  probe %2d: %-8v %s\n", i+1, rtt.Round(time.Microsecond), resp.Summary())
	}
	if len(rtts) == 0 {
		return fmt.Errorf("no responses from %v", addrPort)
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	fmt.Fprintf(out, "\nlatency: min=%v median=%v max=%v\n",
		rtts[0], rtts[len(rtts)/2], rtts[len(rtts)-1])

	if server == "" {
		fmt.Fprintln(out, strings.TrimSpace(`
The latency split between the fastest (cached) and slowest (cache-miss)
responses is the §IV-B3 signal; add -server (a cdeserver with its control
zone) to read ω directly and finish the enumeration.`))
		return nil
	}
	return readControl(out, server, ctl, name)
}

// readControl fetches ω and the egress sources from a cdeserver's DNS
// control zone (§IV-B1 counting, performed remotely).
func readControl(out io.Writer, server, ctl, name string) error {
	srvAddr, err := netip.ParseAddrPort(server)
	if err != nil {
		return fmt.Errorf("parsing -server: %w", err)
	}
	if ctl == "" {
		// Derive ctl.<registrable domain> from the probe name's last two
		// labels: name.cache.example → ctl.cache.example.
		labels := strings.Split(strings.TrimSuffix(dnswire.CanonicalName(name), "."), ".")
		if len(labels) < 2 {
			return fmt.Errorf("cannot derive -ctl from %q; pass it explicitly", name)
		}
		ctl = "ctl." + strings.Join(labels[len(labels)-2:], ".")
	}
	ctl = dnswire.CanonicalName(ctl)
	// Egress readouts can list many addresses; fall back to TCP on
	// truncation.
	tr := &udpnet.Transport{Port: srvAddr.Port(), FallbackTCP: true}
	ctx := context.Background()

	fetch := func(ctlName string) ([]string, error) {
		resp, _, err := tr.Exchange(ctx, dnswire.NewQuery(1, ctlName, dnswire.TypeTXT), srvAddr.Addr())
		if err != nil {
			return nil, err
		}
		if len(resp.Answer) == 0 {
			return nil, fmt.Errorf("control query %s: %s", ctlName, resp.Summary())
		}
		txt, ok := resp.Answer[0].Data.(dnswire.TXTRecord)
		if !ok {
			return nil, fmt.Errorf("control query %s: unexpected %T", ctlName, resp.Answer[0].Data)
		}
		return txt.Strings, nil
	}

	counts, err := fetch("count." + dnswire.CanonicalName(name) + ctl)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\ncontrol-zone readout from %v:\n", srvAddr)
	fmt.Fprintf(out, "  ω (queries for %s at the nameserver): %s caches\n", name, counts[0])
	if egress, err := fetch("egress." + dnswire.CanonicalName(name) + ctl); err == nil {
		fmt.Fprintf(out, "  egress IPs observed: %s %v\n", egress[0], egress[1:])
	}
	return nil
}
