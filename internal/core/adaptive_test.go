package core

import (
	"context"
	"testing"

	"dnscde/internal/loadbal"
)

func TestEnumerateAdaptiveRecoversN(t *testing.T) {
	w := newTestWorld(t)
	for _, n := range []int{1, 3, 8, 20} {
		plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRandom(6)})
		res, err := EnumerateAdaptive(context.Background(), w.directProber(plat), w.infra, AdaptiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Caches != n {
			t.Errorf("n=%d: adaptive measured %d (rounds=%d, probes=%d)", n, res.Caches, res.Rounds, res.ProbesSent)
		}
		if !res.Converged {
			t.Errorf("n=%d: did not converge", n)
		}
	}
}

func TestEnumerateAdaptiveGrowsBudget(t *testing.T) {
	w := newTestWorld(t)
	// n=20 with the default initial budget of 16 must trigger doubling.
	plat := w.newPlatform(t, platformOpts{caches: 20, selector: loadbal.NewRandom(8)})
	res, err := EnumerateAdaptive(context.Background(), w.directProber(plat), w.infra, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Errorf("rounds = %d, want >= 2 for n=20", res.Rounds)
	}
}

func TestEnumerateAdaptiveIndirect(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 4, selector: loadbal.NewRandom(2)})
	res, err := EnumerateAdaptive(context.Background(), w.indirectProber(plat), w.infra, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueHierarchy {
		t.Errorf("technique = %q", res.Technique)
	}
	if res.Caches != 4 {
		t.Errorf("measured %d caches", res.Caches)
	}
}

func TestEnumerateAdaptiveBudgetCap(t *testing.T) {
	w := newTestWorld(t)
	// 300 caches need more than the largest round the cap admits.
	plat := w.newPlatform(t, platformOpts{caches: 300, selector: loadbal.NewRandom(1)})
	res, err := EnumerateAdaptive(context.Background(), w.directProber(plat), w.infra, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("converged despite the budget cap")
	}
	if res.ProbesSent > adaptiveMaxBudget {
		t.Errorf("probes = %d exceeds the cap of %d", res.ProbesSent, adaptiveMaxBudget)
	}
}

func TestDiscoverEgressAdaptive(t *testing.T) {
	w := newTestWorld(t)
	for _, egress := range []int{1, 5, 12} {
		plat := w.newPlatform(t, platformOpts{caches: 2, egress: egress, selector: loadbal.NewRandom(4)})
		res, err := DiscoverEgressAdaptive(context.Background(), w.directProber(plat), w.infra, 24, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IPs) != egress {
			t.Errorf("egress=%d: discovered %d (probes=%d)", egress, len(res.IPs), res.ProbesSent)
		}
	}
}

func TestDiscoverEgressAdaptiveStopsEarly(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 1, egress: 1})
	res, err := DiscoverEgressAdaptive(context.Background(), w.directProber(plat), w.infra, 10, 2048)
	if err != nil {
		t.Fatal(err)
	}
	// One egress IP stabilises after the window, far below the cap.
	if res.ProbesSent > 15 {
		t.Errorf("probes = %d, want prompt stop", res.ProbesSent)
	}
}
