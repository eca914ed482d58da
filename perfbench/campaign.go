package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"dnscde/internal/campaign"
	"dnscde/internal/detpar"
	"dnscde/internal/metrics"
	"dnscde/internal/scenario"
)

// The campaign workload is cdeserver's service path, in process: one
// client submits campaigns one after another to a campaign.Engine
// (Workers 1, Shards 1) and waits for each to settle, then reads the
// JSONL results file back. Each campaign is a corpus scenario with a
// campaign stanza (ticks campaignTicks, max-concurrent nproc, no
// interval or rate) and a $SEED derived from the workload seed. One op
// is one campaign, from Submit to settled; the loop is closed with one
// client.

const (
	campaignTicks = 4
	// campaignVariants is how many $SEEDs each scenario cycles through;
	// every (scenario, seed) pair repeats once a cycle, and each repeat
	// must produce the same results file.
	campaignVariants = 2
	// campaignTwice is submitted twice per variant. With the ten corpus
	// scenarios once each, every scenario would be exactly a tenth of the
	// ops, putting op_ms_p90 (and op_ms_p50) on the jump between two
	// scenarios' op times; eleven submissions per variant put both inside
	// one scenario's distribution.
	campaignTwice  = "open-resolver-4"
	campaignMinOps = 100
	// campaignNominalRate sizes a run: it submits this many campaigns per
	// --seconds (in whole cycles through the specs), about the rate at
	// the commit the benchmark was defined on. The count is fixed rather
	// than timed because the engine keeps every campaign it was given,
	// so with a timed loop a faster engine would run more campaigns and
	// read as a peak_rss_mb regression.
	campaignNominalRate = 40
	saltCampaignSeed    = 0xca5e
)

// campaignSpec is one prepared submission.
type campaignSpec struct {
	scenario string
	text     string
	rows     int // ticks × trials × workloads
}

// loadCampaignSpecs turns the scenario corpus into campaign specs, every
// $SEED derived from seed.
func loadCampaignSpecs(dir string, seed int64, maxConcurrent int) ([]campaignSpec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.scn"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("campaign: no *.scn files in %s", dir)
	}
	sort.Strings(paths)
	var specs []campaignSpec
	for v := 0; v < campaignVariants; v++ {
		for i, path := range paths {
			sc, err := scenario.LoadFile(path)
			if err != nil {
				return nil, err
			}
			sc.Seed = detpar.Derive(seed, saltCampaignSeed, uint64(i), uint64(v))
			sc.Campaign = &scenario.CampaignDef{Ticks: campaignTicks, MaxConcurrent: maxConcurrent}
			spec := campaignSpec{
				scenario: sc.Name,
				text:     sc.Format(),
				rows:     campaignTicks * sc.Trials * len(sc.Workloads),
			}
			specs = append(specs, spec)
			if sc.Name == campaignTwice {
				specs = append(specs, spec)
			}
		}
	}
	return specs, nil
}

// campaignIDField matches the one per-submission field of a result row.
var campaignIDField = regexp.MustCompile(`"campaign":"[^"]*"`)

// normalizeResults blanks the engine-assigned campaign ID, the only
// field that differs between two submissions of the same spec.
func normalizeResults(data []byte) []byte {
	return campaignIDField.ReplaceAll(data, []byte(`"campaign":""`))
}

// checkCampaign is the campaign's output check: the campaign settled
// with every tick completed and none failed, the file holds ticks ×
// trials × workloads well-formed rows of this campaign, and a repeated
// spec produced the same file as its first submission (seen maps spec
// text to the digest of that first file).
func checkCampaign(spec campaignSpec, id string, p campaign.Progress, data []byte, seen map[string][32]byte) ([]campaign.Row, []string) {
	var bad []string
	if p.State != campaign.StateDone || p.Completed != campaignTicks || p.Failed != 0 {
		bad = append(bad, fmt.Sprintf("%s: state %s, %d/%d completed, %d failed (%s)",
			id, p.State, p.Completed, campaignTicks, p.Failed, p.Error))
	}
	var rows []campaign.Row
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r campaign.Row
		if err := json.Unmarshal(line, &r); err != nil {
			bad = append(bad, fmt.Sprintf("%s: malformed row: %v", id, err))
			break
		}
		if r.Campaign != id || r.Run < 0 || r.Run >= campaignTicks {
			bad = append(bad, fmt.Sprintf("%s: row of campaign %q run %d", id, r.Campaign, r.Run))
			break
		}
		rows = append(rows, r)
	}
	if len(rows) != spec.rows {
		bad = append(bad, fmt.Sprintf("%s: %d rows, want %d", id, len(rows), spec.rows))
	}
	sum := sha256.Sum256(normalizeResults(data))
	if first, ok := seen[spec.text]; !ok {
		seen[spec.text] = sum
	} else if first != sum {
		bad = append(bad, fmt.Sprintf("%s: results differ from the first submission of %s", id, spec.scenario))
	}
	return rows, bad
}

// startEngine opens an engine with its results under dir and settles
// one untimed warm-up campaign.
func startEngine(ctx context.Context, dir string, cfg runConfig, warm campaignSpec, svc *metrics.Registry) (*campaign.Engine, error) {
	e, err := campaign.NewEngine(campaign.Options{
		Workers: 1, Shards: 1, Dir: dir, Service: svc,
		Sink: campaign.SinkOptions{Encoders: cfg.workers},
	})
	if err != nil {
		return nil, err
	}
	c, err := e.Submit(warm.text)
	if err != nil {
		e.Close()
		return nil, err
	}
	if err := c.Wait(ctx); err != nil {
		e.Close()
		return nil, err
	}
	if p := c.Progress(); p.State != campaign.StateDone {
		e.Close()
		return nil, fmt.Errorf("campaign: warm-up %s ended %s: %s", c.ID(), p.State, p.Error)
	}
	return e, os.Remove(c.Path())
}

// runCampaign submits whole cycles of the specs, campaignNominalRate
// campaigns per cfg.seconds and at least campaignMinOps.
func runCampaign(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	names := cfg.ln
	specs, err := loadCampaignSpecs(cfg.scenarios, cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("campaigns-%d", os.Getpid()))
	defer os.RemoveAll(base)

	var e *campaign.Engine
	var svc *metrics.Registry
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.Close()
		}
		svc = metrics.New()
		start := now()
		e, err = startEngine(ctx, filepath.Join(base, fmt.Sprint(i)), cfg, specs[0], svc)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, now().Sub(start).Seconds())
	}
	defer e.Close()

	var tk *track
	if cfg.tr != nil {
		tk = cfg.tr.track(0)
	}
	seen := map[string][32]byte{}
	var rows []campaign.Row
	svcBefore := svc.Snapshot()
	cpu0 := readCPU()
	cycles := int(math.Ceil(math.Max(cfg.seconds*campaignNominalRate, campaignMinOps) / float64(len(specs))))
	for op := 0; op < cycles*len(specs); op++ {
		idx := op % len(specs)
		spec := specs[idx]
		rep.timed.begin()
		tk.begin(names.op)
		tk.begin(names.submit)
		c, err := e.Submit(spec.text)
		tk.end()
		if err == nil {
			err = c.Wait(ctx)
		}
		tk.end()
		d := rep.timed.end()
		if err != nil {
			return nil, err
		}
		rep.attempted++
		rep.ops++
		rep.opMS = append(rep.opMS, ms(d))
		data, err := os.ReadFile(c.Path())
		if err != nil {
			return nil, err
		}
		got, bad := checkCampaign(spec, c.ID(), c.Progress(), data, seen)
		for _, why := range bad {
			rep.fail(why)
		}
		rep.exactOf++
		if len(bad) == 0 {
			rep.exact++
		}
		if cfg.tr != nil && len(rows) < 50_000 {
			rows = append(rows, got...)
		}
		if err := os.Remove(c.Path()); err != nil {
			return nil, err
		}
	}
	rep.gcShare = gcShare(cpu0, readCPU())

	// The loop runs whole cycles, and every cycle repeats the same specs
	// and seeds, so these ratios are fixed per seed.
	cycle := svc.Snapshot().Diff(svcBefore)
	probes := float64(cycle.Counter("campaigns.core.probes.sent"))
	hits := float64(cycle.Total("campaigns.dnscache.hits"))
	misses := float64(cycle.Total("campaigns.dnscache.misses"))
	rep.layers["dnscache.hit_ratio"] = ratio(hits, hits+misses)
	rep.layers["platform.recursions_per_probe"] = ratio(float64(cycle.Total("campaigns.platform.recursions")), probes)
	rep.layers["netsim.packets_per_op"] = ratio(float64(cycle.Total("campaigns.netsim.packets.sent")+cycle.Total("campaigns.netsim.packets.recvd")), float64(rep.ops))

	if cfg.tr != nil {
		if err := campaignLayers(ctx, rep, cfg, specs, rows); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// campaignLayers derives the campaign's span metrics. After the op loop
// it times scenario.ParseString and scenario.RunDetailed called directly
// on each spec, and replays the loop's rows through a fresh sink into
// io.Discard.
func campaignLayers(ctx context.Context, rep *report, cfg runConfig, specs []campaignSpec, rows []campaign.Row) error {
	tr := cfg.tr
	names := cfg.ln
	tk := tr.track(-1)
	for _, spec := range specs {
		tk.begin(names.parse)
		sc, err := scenario.ParseString(spec.text)
		tk.end()
		if err != nil {
			return err
		}
		tk.begin(names.scenarioRun)
		_, _, err = scenario.RunDetailed(ctx, sc, scenario.RunOptions{Workers: 1, Shards: 1})
		tk.end()
		if err != nil {
			return err
		}
	}
	runMS := tr.agg("scenario.RunDetailed").mean(time.Millisecond)
	rep.layers["scenario.parse_us"] = tr.agg("scenario.ParseString").mean(time.Microsecond)
	rep.layers["scenario.run_ms"] = runMS
	rep.layers["campaign.submit_us"] = tr.agg("campaign.Engine.Submit").mean(time.Microsecond)
	// Each op runs campaignTicks runs, max-concurrent at a time, and the
	// loop ran whole cycles of specs; whatever op time those runs do not
	// explain is the engine's.
	runWork := float64(rep.ops) * campaignTicks * runMS / float64(cfg.workers)
	rep.layers["campaign.engine_share"] = 1 - ratio(runWork, ms(rep.timed.wall))

	tk.begin(names.sink)
	sink := campaign.NewSink(io.Discard, campaign.SinkOptions{Encoders: cfg.workers})
	for i := range rows {
		if err := sink.Append(rows[i]); err != nil {
			return err
		}
	}
	if _, err := sink.Flush(); err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	tk.end()
	rep.layers["campaign.sink_us_per_row"] = ratio(float64(tr.agg("campaign.Sink").total)/float64(time.Microsecond), float64(len(rows)))
	return nil
}
