package core

import (
	"context"
	"math"
	"net/netip"
	"testing"
	"time"

	"dnscde/internal/loadbal"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
)

func TestLossEstimator(t *testing.T) {
	var e LossEstimator
	if e.Rate() != 0 {
		t.Errorf("fresh estimator Rate = %v, want 0 (no smoothing prior)", e.Rate())
	}
	if k := e.Replicates(0.99, 8); k != 1 {
		t.Errorf("fresh estimator Replicates = %d, want 1", k)
	}
	for i := 0; i < 10; i++ {
		e.Record(i < 2) // 2 failures / 10 probes
	}
	if got := e.Rate(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Rate = %v, want 0.2", got)
	}
	sent, failed := e.Counts()
	if sent != 10 || failed != 2 {
		t.Errorf("Counts = (%d, %d), want (10, 2)", sent, failed)
	}
	// K must match the closed-form §V factor and honour the cap.
	if k, want := e.Replicates(0.99, 8), CarpetBombingFactor(0.2, 0.99); k != want {
		t.Errorf("Replicates(0.99) = %d, want %d", k, want)
	}
	if k := e.Replicates(0.999999, 2); k != 2 {
		t.Errorf("capped Replicates = %d, want 2", k)
	}
}

// TestCompensatedCleanPathMatchesRaw: with zero loss, compensation must
// cost exactly nothing — same probe count as the uncompensated loop, K
// pinned at 1 throughout.
func TestCompensatedCleanPathMatchesRaw(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 4, selector: loadbal.NewRoundRobin()})
	p := w.directProber(plat)

	const q = 16
	raw, err := EnumerateDirect(context.Background(), p, w.infra, EnumOptions{Queries: q})
	if err != nil {
		t.Fatal(err)
	}
	est := &LossEstimator{}
	comp, err := EnumerateDirectCompensated(context.Background(), p, w.infra, EnumOptions{Queries: q}, CompensateOptions{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	if comp.ProbesSent != q || comp.ProbesSent != raw.ProbesSent {
		t.Errorf("clean-path compensated sent %d probes, raw %d, want both %d", comp.ProbesSent, raw.ProbesSent, q)
	}
	if comp.Caches != raw.Caches {
		t.Errorf("clean-path compensated ω=%d, raw ω=%d", comp.Caches, raw.Caches)
	}
	if est.Rate() != 0 {
		t.Errorf("clean-path loss estimate = %v, want 0", est.Rate())
	}
}

// TestCompensatedRecoversUnderBurstLoss drives both enumeration arms over
// a bursty-loss ingress link (§V-B's Iran-grade path, exaggerated): the
// compensated loop must observe the loss, inflate its replication factor
// and recover at least as many caches as the raw loop with the same
// logical budget.
func TestCompensatedRecoversUnderBurstLoss(t *testing.T) {
	w := newTestWorld(t)
	ingress := netsim.AddrRange(netip.MustParseAddr("198.51.120.10"), 1)
	egress := netsim.AddrRange(netip.MustParseAddr("198.51.121.10"), 1)
	_, err := platform.New(platform.Config{
		Name:       "lossy",
		IngressIPs: ingress,
		EgressIPs:  egress,
		CacheCount: 6,
		Selector:   loadbal.NewRandom(6),
		Roots:      w.tree.Roots(),
		Clock:      w.clk,
		Seed:       42,
	}, w.net, netsim.LinkProfile{
		OneWay: 2 * time.Millisecond,
		Faults: &netsim.FaultProfile{BurstLoss: netsim.BurstLoss(0.25, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewDirectProber(w.net, clientAddr, ingress[0], 0)

	const q = 24
	raw, err := EnumerateDirect(context.Background(), p, w.infra, EnumOptions{Queries: q})
	if err != nil {
		t.Fatal(err)
	}
	est := &LossEstimator{}
	comp, err := EnumerateDirectCompensated(context.Background(), p, w.infra, EnumOptions{Queries: q}, CompensateOptions{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	if est.Rate() <= 0.05 {
		t.Errorf("loss estimate = %v, want > 0.05 on a 25%% bursty link", est.Rate())
	}
	if comp.ProbesSent <= q {
		t.Errorf("compensated sent %d probes for budget %d, want inflation (> budget)", comp.ProbesSent, q)
	}
	if comp.Caches < raw.Caches {
		t.Errorf("compensated ω=%d < raw ω=%d — compensation must not count fewer caches", comp.Caches, raw.Caches)
	}
	if comp.Caches != 6 {
		t.Logf("note: compensated ω=%d of 6 (budget-bound; experiment sweeps calibrate the tolerance)", comp.Caches)
	}
}

// TestCompensatedCountsServFailAsLoss: injected SERVFAILs return err ==
// nil but starve the honey sample; they must feed the estimator like
// timeouts do.
func TestCompensatedCountsServFailAsLoss(t *testing.T) {
	w := newTestWorld(t)
	ingress := netsim.AddrRange(netip.MustParseAddr("198.51.122.10"), 1)
	egress := netsim.AddrRange(netip.MustParseAddr("198.51.123.10"), 1)
	if _, err := platform.New(platform.Config{
		Name:       "flaky",
		IngressIPs: ingress,
		EgressIPs:  egress,
		CacheCount: 2,
		Selector:   loadbal.NewRoundRobin(),
		Roots:      w.tree.Roots(),
		Clock:      w.clk,
		Seed:       42,
	}, w.net, netsim.LinkProfile{
		Faults: &netsim.FaultProfile{ServFailRate: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	p := NewDirectProber(w.net, clientAddr, ingress[0], 0)
	est := &LossEstimator{}
	res, err := EnumerateDirectCompensated(context.Background(), p, w.infra, EnumOptions{Queries: 20}, CompensateOptions{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	if est.Rate() <= 0.2 {
		t.Errorf("loss estimate = %v, want > 0.2 with ServFailRate 0.5", est.Rate())
	}
	if res.ProbeErrors == 0 {
		t.Error("injected SERVFAILs must count as probe errors")
	}
	if res.Caches != 2 {
		t.Errorf("ω = %d, want 2 despite SERVFAIL injection", res.Caches)
	}
}

// TestLossEstimatorZeroProbesDefined pins the zero-probe contract: with
// sent==0 there is no evidence of loss, so Rate is exactly 0 (never NaN
// from 0/0) and Replicates is exactly 1 for every confidence target —
// including the degenerate confidence >= 1 that would otherwise be
// clamped inside CarpetBombingFactor.
func TestLossEstimatorZeroProbesDefined(t *testing.T) {
	var e LossEstimator
	if r := e.Rate(); r != 0 || math.IsNaN(r) {
		t.Errorf("Rate at sent==0 = %v, want exactly 0", r)
	}
	for _, conf := range []float64{0, 0.5, 0.99, 0.999999, 1, 2} {
		if k := e.Replicates(conf, 0); k != 1 {
			t.Errorf("Replicates(conf=%v, uncapped) at sent==0 = %d, want 1", conf, k)
		}
		if k := e.Replicates(conf, 8); k != 1 {
			t.Errorf("Replicates(conf=%v, cap 8) at sent==0 = %d, want 1", conf, k)
		}
	}
}
