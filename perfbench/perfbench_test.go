package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dnscde/internal/campaign"
	"dnscde/internal/experiments"
	"dnscde/internal/population"
)

const testScenarios = "../internal/scenario/testdata/scenarios"

func testConfig(t *testing.T) runConfig {
	return runConfig{
		seed: 7, seconds: 0.001, workers: 2, out: t.TempDir(),
		ln: internNames(nil), scenarios: testScenarios,
		surveyPerKind: 4, floodClients: 20_000, snapshotEntries: 500,
	}
}

func TestSurveyCheckTripsOnDoctoredResults(t *testing.T) {
	spec := population.NetworkSpec{Name: "p", Caches: 4, Egress: 6}
	cases := []struct {
		name string
		kind population.Kind
		out  surveyOutcome
		want surveyVerdict
	}{
		{"exact", population.OpenResolvers, surveyOutcome{caches: 4, egress: 6}, verdictExact},
		{"under", population.ISPs, surveyOutcome{caches: 3, egress: 2}, verdictUnder},
		{"one cache too many", population.OpenResolvers, surveyOutcome{caches: 5, egress: 6}, verdictFailed},
		{"one egress IP too many", population.ISPs, surveyOutcome{caches: 4, egress: 7}, verdictFailed},
		{"smtp without queries is modelled", population.Enterprises, surveyOutcome{}, verdictModelled},
		{"direct probe without queries", population.OpenResolvers, surveyOutcome{}, verdictFailed},
		{"unexpected error", population.ISPs, surveyOutcome{caches: 4, err: io.ErrUnexpectedEOF}, verdictFailed},
	}
	for _, tc := range cases {
		if got, _ := checkSurvey(tc.kind, spec, tc.out); got != tc.want {
			t.Errorf("%s: verdict %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSurveyRepeatsPerSeed runs a small survey twice: outcomes and the
// per-layer counts must repeat exactly for a seed.
func TestSurveyRepeatsPerSeed(t *testing.T) {
	cfg := testConfig(t)
	a, err := runSurvey(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSurvey(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.failed != 0 {
		t.Fatalf("survey failed checks: %v", a.failures)
	}
	if a.ops != 3*cfg.surveyPerKind || a.exactOf == 0 {
		t.Fatalf("ops %d, exactOf %d", a.ops, a.exactOf)
	}
	if a.exact != b.exact || a.exactOf != b.exactOf || !reflect.DeepEqual(a.layers, b.layers) {
		t.Fatalf("runs differ: exact %d/%d vs %d/%d, counts %v vs %v",
			a.exact, a.exactOf, b.exact, b.exactOf, a.layers, b.layers)
	}
	if a.layers["core.probes_per_op"] == 0 || a.layers["authns.log_entries"] == 0 {
		t.Fatalf("counts not recorded: %v", a.layers)
	}
}

func TestFloodCheckTripsOnDoctoredResults(t *testing.T) {
	fx, err := deployFlood(3, 20_000, 200, nil, internNames(nil))
	if err != nil {
		t.Fatal(err)
	}
	s, err := fx.sweep(context.Background(), &phase{})
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkFlood(s); len(bad) != 0 {
		t.Fatalf("clean sweep fails its check: %v", bad)
	}
	if s.lateAssigned == 0 {
		t.Fatal("no late assignments: the failure checks are not exercised")
	}
	doctor := map[string]func(*floodSweep){
		"one exchange unsettled":  func(s *floodSweep) { s.tally.completed-- },
		"one packet double-sent":  func(s *floodSweep) { s.sent++ },
		"one response lost":       func(s *floodSweep) { s.recvd-- },
		"one extra failure":       func(s *floodSweep) { s.tally.failed++ },
		"one timeout mischarged":  func(s *floodSweep) { s.tally.mischarged++ },
		"one unexpected error":    func(s *floodSweep) { s.tally.badErr = io.ErrUnexpectedEOF },
		"one late assignment off": func(s *floodSweep) { s.lateAssigned++ },
	}
	for name, fn := range doctor {
		d := s
		fn(&d)
		if len(checkFlood(d)) == 0 {
			t.Errorf("%s: check passed", name)
		}
	}
}

// TestFloodMatchesScaleSweep cross-checks the benchmark's flood driver
// against experiments.Scale at shards=1: same clients, caches and seed
// give the same exchange-event count.
func TestFloodMatchesScaleSweep(t *testing.T) {
	const seed, clients, caches = 11, 30_000, 300
	fx, err := deployFlood(seed, clients, caches, nil, internNames(nil))
	if err != nil {
		t.Fatal(err)
	}
	s, err := fx.sweep(context.Background(), &phase{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.RunContext(context.Background(), "scale", experiments.Config{
		Seed: seed, ScaleClients: clients, ScaleCaches: caches, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`events dispatched\s+(\d+)`).FindStringSubmatch(rep.Text)
	if m == nil {
		t.Fatalf("no events row in the scale report:\n%s", rep.Text)
	}
	want, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.events != want {
		t.Fatalf("flood dispatched %d exchange events, scale sweep %d", s.events, want)
	}
	if s.events != 4*uint64(clients) {
		t.Errorf("flood dispatched %d events for %d clients", s.events, clients)
	}
}

func TestCampaignCheckTripsOnDoctoredResults(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t)
	specs, err := loadCampaignSpecs(testScenarios, cfg.seed, cfg.workers)
	if err != nil {
		t.Fatal(err)
	}
	e, err := startEngine(ctx, filepath.Join(cfg.out, "engine"), cfg, specs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	submit := func(idx int) (*campaign.Campaign, []byte) {
		c, err := e.Submit(specs[idx].text)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(c.Path())
		if err != nil {
			t.Fatal(err)
		}
		return c, data
	}
	seen := map[string][32]byte{}
	c1, d1 := submit(1)
	if _, bad := checkCampaign(specs[1], c1.ID(), c1.Progress(), d1, seen); len(bad) != 0 {
		t.Fatalf("first submission fails its check: %v", bad)
	}
	c2, d2 := submit(1)
	if _, bad := checkCampaign(specs[1], c2.ID(), c2.Progress(), d2, copySeen(seen)); len(bad) != 0 {
		t.Fatalf("repeat submission fails its check: %v", bad)
	}

	changed := bytes.Replace(d2, []byte(`"trial":0`), []byte(`"trial":9`), 1)
	dropped := d2[:bytes.LastIndexByte(d2[:len(d2)-1], '\n')+1]
	failedRun := c2.Progress()
	failedRun.Failed, failedRun.Completed = 1, campaignTicks-1
	doctored := []struct {
		name string
		p    campaign.Progress
		data []byte
	}{
		{"one changed row", c2.Progress(), changed},
		{"one row missing", c2.Progress(), dropped},
		{"one failed run", failedRun, d2},
	}
	for _, d := range doctored {
		if bytes.Equal(d.data, d2) && reflect.DeepEqual(d.p, c2.Progress()) {
			t.Fatalf("%s: doctoring changed nothing", d.name)
		}
		if _, bad := checkCampaign(specs[1], c2.ID(), d.p, d.data, copySeen(seen)); len(bad) == 0 {
			t.Errorf("%s: check passed", d.name)
		}
	}
}

func copySeen(m map[string][32]byte) map[string][32]byte {
	out := make(map[string][32]byte, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func TestSnapshotCheckTripsOnFlippedByte(t *testing.T) {
	src, err := snapshotWorld(5, 500, 10)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := snapshotWorld(5, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	image, err := roundTrip(src, dst, nil, internNames(nil))
	if err != nil {
		t.Fatal(err)
	}
	again, err := reencode(dst)
	if err != nil {
		t.Fatal(err)
	}
	if why := checkSnapshot(image, again); why != "" {
		t.Fatalf("clean round trip fails its check: %s", why)
	}
	flipped := append([]byte(nil), again...)
	flipped[len(flipped)/2] ^= 0x01
	if checkSnapshot(image, flipped) == "" {
		t.Fatal("flipped image byte passed the check")
	}
}

// TestSnapshotInputsFollowSeed checks that names and addresses derive
// from the seed.
func TestSnapshotInputsFollowSeed(t *testing.T) {
	image := func(seed int64) []byte {
		w, err := snapshotWorld(seed, 50, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reencode(w)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(image(3), image(3)) {
		t.Fatal("same seed, different images")
	}
	if bytes.Equal(image(3), image(4)) {
		t.Fatal("different seeds, same images")
	}
}

// TestRunPrintsResultLine runs the campaign workload through the CLI
// entry point and checks the last stdout line's shape.
func TestRunPrintsResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "campaign", "--seed", "3", "--seconds", "0.01",
		"--scenarios", testScenarios, "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < campaignMinOps || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s: %+v (present %v)", d.name, m, ok)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "survey", "--trace", "2"},
		{"--workload", "flood", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
