package main

import (
	"os"
	"strings"
	"testing"

	"dnscde/internal/loadbal"
	"dnscde/internal/netsim"
)

func TestRunSimAllTechniques(t *testing.T) {
	var sb strings.Builder
	if err := runSim(&sb, "all", 3, 2, 4, "random", 0.01, nil, 7, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"caches=3 ingress=2 egress=4",
		"direct enumeration (§IV-B1):     3 caches",
		"CNAME-chain bypass (§IV-B2a):    3 caches",
		"names-hierarchy bypass (§IV-B2b): 3 caches",
		"timing side channel (§IV-B3):    3 caches",
		"egress discovery (§IV-B1b):      4 egress IPs",
		"1 cluster(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSimSingleTechnique(t *testing.T) {
	var sb strings.Builder
	if err := runSim(&sb, "direct", 2, 1, 1, "round-robin", 0, nil, 1, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "direct enumeration") {
		t.Errorf("missing direct output:\n%s", out)
	}
	if strings.Contains(out, "timing side channel") {
		t.Errorf("unexpected timing output:\n%s", out)
	}
}

func TestRunSimWithFaults(t *testing.T) {
	fp, err := netsim.ParseFaultProfile("burst=0.11:4,servfail=0.05,truncate=0.05")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := runSim(&sb, "direct", 3, 1, 1, "random", 0, fp, 11, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "injected faults: burst=0.11:4,servfail=0.05,truncate=0.05") {
		t.Errorf("missing injected-faults banner:\n%s", out)
	}
	if !strings.Contains(out, "injected faults:  ") {
		t.Errorf("cost summary missing fault counters:\n%s", out)
	}
}

func TestRunFaultsFlagValidation(t *testing.T) {
	var sb strings.Builder
	if code := run([]string{"-faults", "bogus=1"}, &sb); code != 2 {
		t.Errorf("bad -faults exit = %d", code)
	}
}

func TestMakeSelector(t *testing.T) {
	for _, kind := range loadbal.Names() {
		var sb strings.Builder
		if code := run([]string{"-selector", kind, "-technique", "direct", "-caches", "2"}, &sb); code != 0 {
			t.Errorf("-selector %s exit = %d", kind, code)
		}
		if want := "selector=" + kind; !strings.Contains(sb.String(), want) {
			t.Errorf("-selector %s: report lacks %q", kind, want)
		}
	}
	var sb strings.Builder
	if code := run([]string{"-selector", "bogus", "-technique", "direct"}, &sb); code != 1 {
		t.Errorf("bogus selector exit = %d, want 1", code)
	}
}

func TestRunFlagHandling(t *testing.T) {
	var sb strings.Builder
	if code := run([]string{"-mode", "nope"}, &sb); code != 2 {
		t.Errorf("unknown mode exit = %d", code)
	}
	if code := run([]string{"-bogus-flag"}, &sb); code != 2 {
		t.Errorf("bad flag exit = %d", code)
	}
	if code := run([]string{"-mode", "udp"}, &sb); code != 1 {
		t.Errorf("udp without target exit = %d", code)
	}
}

func TestRunUDPValidation(t *testing.T) {
	var sb strings.Builder
	if err := runUDP(&sb, "", "", 1, "", ""); err == nil {
		t.Error("missing flags accepted")
	}
	if err := runUDP(&sb, "not-an-addr", "a.example", 1, "", ""); err == nil {
		t.Error("bad target accepted")
	}
}

func TestRunSimSurvey(t *testing.T) {
	var sb strings.Builder
	if err := runSim(&sb, "survey", 3, 1, 2, "round-robin", 0, nil, 9, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"caches:            3", "egress IPs:        2", "traffic-dependent", "total probes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("survey output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSimTrace(t *testing.T) {
	var sb strings.Builder
	if err := runSim(&sb, "trace", 1, 1, 1, "random", 0, nil, 4, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"cold resolution", "warm resolution", "cache-miss", "cache-hit", "referral"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestRunScenarioFlag(t *testing.T) {
	const scn = "../../internal/scenario/testdata/scenarios/open-resolver-1.scn"
	var a, b strings.Builder
	if code := run([]string{"-scenario", scn, "-workers", "1"}, &a); code != 0 {
		t.Fatalf("-scenario exit = %d", code)
	}
	if !strings.Contains(a.String(), `"scenario": "open-resolver-1"`) {
		t.Errorf("canonical report missing scenario name:\n%s", a.String())
	}
	if code := run([]string{"-scenario", scn, "-workers", "8"}, &b); code != 0 {
		t.Fatalf("-scenario -workers 8 exit = %d", code)
	}
	if a.String() != b.String() {
		t.Error("-scenario output differs between -workers 1 and 8")
	}
}

func TestRunScenarioMissingFile(t *testing.T) {
	var sb strings.Builder
	if code := run([]string{"-scenario", "no/such/file.scn"}, &sb); code != 2 {
		t.Errorf("missing scenario file exit = %d, want 2", code)
	}
}

func TestRunScenarioBadGrammar(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bad.scn"
	if err := os.WriteFile(path, []byte("$SCENARIO x\nbananas\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if code := run([]string{"-scenario", path}, &sb); code != 2 {
		t.Errorf("invalid scenario grammar exit = %d, want 2", code)
	}
}

// TestRunCheckpointRestoreFlags drives the -checkpoint / -restore-from
// pair end to end: freeze trial 0 of a scenario at its midpoint, thaw it
// in a second invocation, and the finished trial must print. A snapshot
// thawed under a different scenario must be rejected.
func TestRunCheckpointRestoreFlags(t *testing.T) {
	const scn = "../../internal/scenario/testdata/scenarios/open-resolver-4.scn"
	snap := t.TempDir() + "/trial0.snap"

	var a strings.Builder
	if code := run([]string{"-scenario", scn, "-checkpoint", snap}, &a); code != 0 {
		t.Fatalf("-checkpoint exit = %d\n%s", code, a.String())
	}
	if !strings.Contains(a.String(), "checkpoint: scenario open-resolver-4 trial 0") {
		t.Errorf("checkpoint banner missing:\n%s", a.String())
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file not written: %v", err)
	}

	var b strings.Builder
	if code := run([]string{"-scenario", scn, "-restore-from", snap}, &b); code != 0 {
		t.Fatalf("-restore-from exit = %d\n%s", code, b.String())
	}
	for _, want := range []string{`"Scenario": "open-resolver-4"`, `"Trial": 0`, `"Workloads"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("restore output missing %s:\n%s", want, b.String())
		}
	}

	// Thawing under the wrong scenario is a config mismatch, not a crash.
	var c strings.Builder
	wrong := "../../internal/scenario/testdata/scenarios/open-resolver-1.scn"
	if code := run([]string{"-scenario", wrong, "-restore-from", snap}, &c); code != 1 {
		t.Errorf("wrong-scenario restore exit = %d, want 1", code)
	}

	// The flags require a scenario file.
	var d strings.Builder
	if code := run([]string{"-checkpoint", snap}, &d); code != 2 {
		t.Errorf("-checkpoint without -scenario exit = %d, want 2", code)
	}
}
