package core

import (
	"context"
	"testing"

	"dnscde/internal/loadbal"
	"dnscde/internal/platform"
)

func TestDeepChainSession(t *testing.T) {
	w := newTestWorld(t)
	session, err := w.infra.NewDeepChainSession(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(session.Links) != 5 {
		t.Fatalf("links = %d", len(session.Links))
	}
	if session.ObservedDepth() != 0 || session.TargetReached() {
		t.Error("fresh session already observed")
	}
	if _, err := w.infra.NewDeepChainSession(0); err == nil {
		t.Error("depth 0 accepted")
	}
}

func TestFingerprintHardenedResolver(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 1, mutate: func(c *platform.Config) {
		c.MaxCNAMEChase = 11
	}})
	fp, err := FingerprintResolver(context.Background(), w.directProber(plat), w.infra)
	if err != nil {
		t.Fatal(err)
	}
	if fp.TrustsServerChains {
		t.Error("hardened platform classified as chain-trusting")
	}
	if !fp.ChaseLimited {
		t.Error("24-deep chain should exceed the 11-hop limit")
	}
	// The chase limit counts hops from the first link; the platform
	// queried links 1..limit+1 before giving up.
	if fp.ObservedChaseDepth < 11 || fp.ObservedChaseDepth > 13 {
		t.Errorf("observed depth = %d, want ≈11", fp.ObservedChaseDepth)
	}
	if fp.QueriesAAAA {
		t.Error("spurious AAAA coupling")
	}
	if got := ClassifySoftware(fp); got != SoftwareHardened {
		t.Errorf("classified %q", got)
	}
}

func TestFingerprintChainTrusting(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 1, mutate: func(c *platform.Config) {
		c.TrustAnswerChains = true
	}})
	fp, err := FingerprintResolver(context.Background(), w.directProber(plat), w.infra)
	if err != nil {
		t.Fatal(err)
	}
	if !fp.TrustsServerChains {
		t.Errorf("fingerprint = %+v, want chain-trusting", fp)
	}
	if got := ClassifySoftware(fp); got != SoftwareChainTrusting {
		t.Errorf("classified %q", got)
	}
}

func TestFingerprintAAAACoupled(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 1, mutate: func(c *platform.Config) {
		c.QueryAAAA = true
		c.MaxCNAMEChase = 8
	}})
	fp, err := FingerprintResolver(context.Background(), w.directProber(plat), w.infra)
	if err != nil {
		t.Fatal(err)
	}
	if !fp.QueriesAAAA {
		t.Errorf("fingerprint = %+v, want AAAA coupling", fp)
	}
	if got := ClassifySoftware(fp); got != SoftwareAAAACoupled {
		t.Errorf("classified %q", got)
	}
}

func TestFingerprintChaseWithinBudget(t *testing.T) {
	// A chain shallower than the platform's limit is walked to the end.
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 1, mutate: func(c *platform.Config) {
		c.MaxCNAMEChase = 2 * fingerprintChainDepth
	}})
	fp, err := FingerprintResolver(context.Background(), w.directProber(plat), w.infra)
	if err != nil {
		t.Fatal(err)
	}
	if fp.ChaseLimited {
		t.Errorf("fingerprint = %+v: %d-deep chain within a %d-hop budget flagged as limited",
			fp, fingerprintChainDepth, 2*fingerprintChainDepth)
	}
	if fp.ObservedChaseDepth != fingerprintChainDepth {
		t.Errorf("observed depth = %d, want %d", fp.ObservedChaseDepth, fingerprintChainDepth)
	}
}

func TestFingerprintSelectorIndependent(t *testing.T) {
	// Multi-cache platforms fingerprint the same way (each probe lands in
	// some cache; behaviour is identical across caches here).
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 4, selector: loadbal.NewRandom(3),
		mutate: func(c *platform.Config) { c.QueryAAAA = true }})
	fp, err := FingerprintResolver(context.Background(), w.directProber(plat), w.infra)
	if err != nil {
		t.Fatal(err)
	}
	if !fp.QueriesAAAA {
		t.Errorf("fingerprint = %+v", fp)
	}
}
