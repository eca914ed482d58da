package core

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnscde/internal/dnscache"
	"dnscde/internal/loadbal"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
)

func TestSurveyPlatformCompleteProfile(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{
		caches: 3, egress: 4, selector: loadbal.NewRoundRobin(),
		mutate: func(c *platform.Config) {
			c.CachePolicy = dnscache.Policy{MinTTL: 120 * time.Second}
			c.QueryAAAA = true
			c.MaxCNAMEChase = 8
		},
	})
	survey, err := SurveyPlatform(context.Background(), w.directProber(plat), w.infra, SurveyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if survey.Caches.Caches != 3 {
		t.Errorf("caches = %d", survey.Caches.Caches)
	}
	if len(survey.Egress.IPs) != 4 {
		t.Errorf("egress = %d", len(survey.Egress.IPs))
	}
	if survey.Selection.Class != ClassTrafficDependent {
		t.Errorf("selection = %q", survey.Selection.Class)
	}
	if survey.SoftwareClass != SoftwareAAAACoupled {
		t.Errorf("software = %q", survey.SoftwareClass)
	}
	if survey.TTL.MinTTL < 115*time.Second || survey.TTL.MinTTL > 120*time.Second {
		t.Errorf("min ttl = %v", survey.TTL.MinTTL)
	}
	if survey.Timing.Caches != 3 {
		t.Errorf("timing cross-check = %d", survey.Timing.Caches)
	}
	if survey.ProbesSent == 0 {
		t.Error("no probe accounting")
	}

	out := survey.Render()
	for _, want := range []string{
		"caches:            3",
		"egress IPs:        4",
		"traffic-dependent",
		"aaaa-coupled",
		"min clamp",
		"timing cross-check: 3 caches",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSurveyRejectsIndirect(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 1})
	if _, err := SurveyPlatform(context.Background(), w.indirectProber(plat), w.infra, SurveyOptions{}); err == nil {
		t.Error("indirect prober accepted")
	}
}

func TestFormatAddrsTruncation(t *testing.T) {
	long := netsim.AddrRange(netip.MustParseAddr("10.0.0.1"), 12)
	out := formatAddrs(long, 8)
	if !strings.Contains(out, "(+4)") {
		t.Errorf("formatAddrs = %q", out)
	}
	short := netsim.AddrRange(netip.MustParseAddr("10.0.0.1"), 3)
	if strings.Contains(formatAddrs(short, 8), "+") {
		t.Error("short list truncated")
	}
}
