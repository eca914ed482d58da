// Command perfbench is the repository benchmark. It runs four workloads
// against the program's public packages, checks every output, and
// prints end-to-end metrics (untraced) or per-layer metrics (traced).
//
//	bash perfbench/run.sh --workload survey --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// Workloads: survey (the fig3 measurement pipeline over generated
// populations), flood (the scale sweep's stub population on the DES),
// campaign (the campaign engine's service path) and snapshot (world
// checkpoint and restore). `all` runs the four in this one process and,
// with --trace 1, runs each untraced and then traced and reports the
// tracing overhead. The last line of stdout is one JSON object with the
// keys correct, attempted, failed and metrics; the exit code is 1 when
// an output check failed. README.md in this directory has the details.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

const (
	// defaultSeed is the seed the recorded baseline uses; heldOutSeed is
	// kept for validating later claims (perfbench/baseline.json).
	defaultSeed = 1
	heldOutSeed = 20170626
	// setupReps is how many times each workload sets up before its
	// timed phase; setup_s is the median.
	setupReps = 9
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"exact_share", "share"},
}

// perLayer are the metrics of a traced run. Each is reported on every
// workload; a layer the workload never enters reads 0.
var perLayer = []metricDef{
	{"core.enum_ms", "ms"},
	{"core.egress_ms", "ms"},
	{"core.readout_share", "share"},
	{"probe.us", "us"},
	{"core.probes_per_op", "count"},
	{"authns.log_entries", "count"},
	{"dnscache.hit_ratio", "share"},
	{"platform.recursions_per_probe", "count"},
	{"netsim.packets_per_op", "count"},
	{"netsim.launch_ns", "ns"},
	{"handler.ns", "ns"},
	{"des.self_ns", "ns"},
	{"des.events_per_op", "count"},
	{"scenario.parse_us", "us"},
	{"scenario.run_ms", "ms"},
	{"campaign.submit_us", "us"},
	{"campaign.engine_share", "share"},
	{"campaign.sink_us_per_row", "us"},
	{"simtest.capture_ms", "ms"},
	{"worldstate.encode_ms", "ms"},
	{"worldstate.decode_ms", "ms"},
	{"simtest.restore_ms", "ms"},
	{"worldstate.bytes_per_entry", "count"},
	{"population.generate_ms", "ms"},
	{"simtest.deploy_ms", "ms"},
	{"runtime.gc_share", "share"},
	{"trace.ops_per_s", "1/s"},
}

// workloads in run order for `all`.
var workloads = []struct {
	name string
	run  func(context.Context, runConfig) (*report, error)
}{
	{"survey", runSurvey},
	{"flood", runFlood},
	{"campaign", runCampaign},
	{"snapshot", runSnapshot},
}

// layerNames are the interned span names.
type layerNames struct {
	op, enum, egress, probe, generate, deploy int
	gen, launch, handler, done, run           int
	submit, parse, scenarioRun, sink          int
	capture, encode, decode, restore          int
}

func internNames(tr *tracer) *layerNames {
	if tr == nil {
		return &layerNames{}
	}
	return &layerNames{
		op: tr.name("op"), enum: tr.name("core.EnumerateAdaptive"),
		egress: tr.name("core.DiscoverEgressAdaptive"), probe: tr.name("core.Prober.Probe"),
		generate: tr.name("population.Generate"), deploy: tr.name("simtest.World.NewPlatform"),
		gen: tr.name("flood.generator"), launch: tr.name("netsim.Conn.ExchangeEvent"),
		handler: tr.name("flood.handler"), done: tr.name("flood.completion"),
		run:    tr.name("des.ShardedScheduler.Run"),
		submit: tr.name("campaign.Engine.Submit"), parse: tr.name("scenario.ParseString"),
		scenarioRun: tr.name("scenario.RunDetailed"), sink: tr.name("campaign.Sink"),
		capture: tr.name("simtest.World.Snapshot"), encode: tr.name("worldstate.Encode"),
		decode: tr.name("worldstate.Decode"), restore: tr.name("simtest.World.Restore"),
	}
}

// runConfig is one workload run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	workers int // every pool the benchmark sizes: nproc
	out     string
	tr      *tracer // nil: untraced
	ln      *layerNames

	scenarios       string
	surveyPerKind   int
	surveyMinOps    int
	floodClients    int
	snapshotEntries int
}

// report is what one workload run measured.
type report struct {
	attempted, failed int
	failures          []string

	setup   []float64 // seconds per set-up repetition
	ops     int
	opMS    []float64 // host ms per op sample
	timed   phase
	gcShare float64

	// exact of exactOf checked outputs equal their reference.
	exact, exactOf int
	// layers holds the per-layer metrics: counts fixed per seed, and
	// span metrics when the run is traced.
	layers map[string]float64
}

func newReport() *report {
	return &report{layers: map[string]float64{}}
}

// fail records one failed output check, keeping the first reasons.
func (r *report) fail(why string) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, why)
	}
}

func (r *report) opsPerS() float64 { return ratio(float64(r.ops), r.timed.wall.Seconds()) }

// sample is a metric value with its sample count.
type sample struct {
	value float64
	n     int
	of    string
}

// endToEndSamples derives the untraced metrics.
func endToEndSamples(r *report, peakMB float64) map[string]sample {
	return map[string]sample{
		"setup_s":       {median(r.setup), len(r.setup), "set-ups"},
		"ops_per_s":     {r.opsPerS(), r.ops, "ops"},
		"op_ms_p50":     {percentile(r.opMS, 0.5), len(r.opMS), "op samples"},
		"op_ms_p90":     {percentile(r.opMS, 0.9), len(r.opMS), "op samples"},
		"allocs_per_op": {ratio(float64(r.timed.mallocs), float64(r.ops)), r.ops, "ops"},
		"peak_rss_mb":   {peakMB, 1, "process"},
		"exact_share":   {ratio(float64(r.exact), float64(r.exactOf)), r.exactOf, "checked outputs"},
	}
}

// layerSamples derives the traced metrics.
func layerSamples(r *report) map[string]sample {
	out := map[string]sample{}
	for _, d := range perLayer {
		out[d.name] = sample{value: r.layers[d.name]}
	}
	out["runtime.gc_share"] = sample{value: r.gcShare}
	out["trace.ops_per_s"] = sample{value: r.opsPerS(), n: r.ops, of: "ops"}
	return out
}

// result is the last line of stdout.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "", "survey, flood, campaign, snapshot or all")
		seed       = fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed; every input derives from it (held-out seed %d)", heldOutSeed))
		seconds    = fs.Float64("seconds", 20, "minimum length of each workload's measured loop")
		traceMode  = fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
		out        = fs.String("out", ".bench_build", "directory for traces, profiles and campaign result files")
		profileDir = fs.String("profile-dir", "", "when set, write <workload>.cpu.pprof and <workload>.heap.pprof there")
		scenarios  = fs.String("scenarios", "internal/scenario/testdata/scenarios", "scenario corpus the campaign workload cycles through")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == w.name || *workload == "all" {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (survey, flood, campaign, snapshot, all)\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	base := runConfig{
		seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), out: *out,
		scenarios: *scenarios, surveyPerKind: surveyPerKind, surveyMinOps: surveyMinOps,
		floodClients: floodClients, snapshotEntries: snapshotEntries,
	}
	fmt.Fprintf(stdout, "perfbench seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s\n",
		*seed, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	ctx := context.Background()
	final := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		if len(names) > 1 && !resetPeakRSS() {
			fmt.Fprintf(stdout, "%-9s note: peak RSS could not be reset; peak_rss_mb carries over\n", name)
		}
		var untraced map[string]sample
		if *traceMode == 0 || len(names) > 1 {
			rep, err := runOne(ctx, name, base, *profileDir)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
				return 1
			}
			untraced = endToEndSamples(rep, peakRSSMB())
			printSamples(stdout, name, endToEnd, untraced)
			reportFailures(stderr, name, rep)
			fmt.Fprintf(stdout, "%-9s %-30s %12.6g %-6s (%d of %d ops)\n", name, "fail_share",
				ratio(float64(rep.failed), float64(rep.attempted)), "share", rep.failed, rep.attempted)
			final.add(name, len(names) > 1, rep, endToEnd, untraced)
		}
		if *traceMode == 1 {
			cfg := base
			cfg.tr = newTracer()
			rep, err := runOne(ctx, name, cfg, "")
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", name, err)
				return 1
			}
			layers := layerSamples(rep)
			printSamples(stdout, name, perLayer, layers)
			reportFailures(stderr, name, rep)
			if untraced != nil {
				u := untraced["ops_per_s"].value
				fmt.Fprintf(stdout, "%-9s %-30s %12.6g %-6s (traced %.6g vs untraced %.6g ops/s)\n", name, "trace.overhead",
					ratio(u-layers["trace.ops_per_s"].value, u), "share", layers["trace.ops_per_s"].value, u)
			}
			path := filepath.Join(*out, fmt.Sprintf("trace-%s-%d.json", name, *seed))
			n, err := cfg.tr.writeChrome(path)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%-9s wrote %d spans to %s\n", name, n, path)
			final.add(name, len(names) > 1, rep, perLayer, layers)
		}
	}
	buf, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	if !final.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload, with CPU and heap profiles when dir is set.
func runOne(ctx context.Context, name string, cfg runConfig, dir string) (*report, error) {
	cfg.ln = internNames(cfg.tr)
	var fn func(context.Context, runConfig) (*report, error)
	for _, w := range workloads {
		if w.name == name {
			fn = w.run
		}
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	rep, err := fn(ctx, cfg)
	if err != nil || dir == "" {
		return rep, err
	}
	runtime.GC()
	return rep, writeHeapProfile(filepath.Join(dir, name+".heap.pprof"))
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// add folds one workload's outcome into the final JSON line; with
// prefix, metric names carry the workload name.
func (res *result) add(name string, prefix bool, rep *report, defs []metricDef, samples map[string]sample) {
	res.Attempted += rep.attempted
	res.Failed += rep.failed
	if rep.failed > 0 {
		res.Correct = false
	}
	for _, d := range defs {
		key := d.name
		if prefix {
			key = name + "." + d.name
		}
		res.Metrics[key] = jsonMetric{Value: samples[d.name].value, Unit: d.unit}
	}
}

func printSamples(w io.Writer, workload string, defs []metricDef, samples map[string]sample) {
	for _, d := range defs {
		s := samples[d.name]
		count := ""
		if s.of != "" {
			count = fmt.Sprintf("(n=%d %s)", s.n, s.of)
		}
		fmt.Fprintf(w, "%-9s %-30s %12.6g %-6s %s\n", workload, d.name, s.value, d.unit, count)
	}
}

// reportFailures lists a run's failed output checks on stderr.
func reportFailures(w io.Writer, workload string, rep *report) {
	if rep.failed > 0 {
		fmt.Fprintf(w, "perfbench: %s: %d failed output checks:\n  %s\n",
			workload, rep.failed, strings.Join(rep.failures, "\n  "))
	}
}
