package stub

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnscde/internal/clock"
	"dnscde/internal/dnstree"
	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
	"dnscde/internal/zone"
)

var (
	parentNSAddr = netip.MustParseAddr("203.0.113.10")
	childNSAddr  = netip.MustParseAddr("203.0.113.11")
	targetAddr   = netip.MustParseAddr("192.0.2.80")
	clientAddr   = netip.MustParseAddr("198.18.0.1")
	ingressAddr  = netip.MustParseAddr("198.51.100.100")
)

type fixture struct {
	net    *netsim.Network
	clk    *clock.Virtual
	plat   *platform.Platform
	parent interface{ Log() interface{} }
}

func setup(t *testing.T, cacheCount int) (*netsim.Network, *clock.Virtual, *platform.Platform, *dnstree.Tree) {
	t.Helper()
	n := netsim.New(3)
	clk := clock.NewVirtual()
	tree, err := dnstree.Build(n, clk, netsim.LinkProfile{OneWay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := zone.BuildCNAMEChain("chain.example", 20, targetAddr, parentNSAddr, 300)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := zone.BuildHierarchy("cache.example", 20, targetAddr, parentNSAddr, childNSAddr, 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.AttachAuthority(parentNSAddr, netsim.LinkProfile{OneWay: 10 * time.Millisecond}, chain, hier.Parent); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.AttachAuthority(childNSAddr, netsim.LinkProfile{OneWay: 10 * time.Millisecond}, hier.Child); err != nil {
		t.Fatal(err)
	}
	plat, err := platform.New(platform.Config{
		Name:       "isp",
		IngressIPs: []netip.Addr{ingressAddr},
		EgressIPs:  []netip.Addr{netip.MustParseAddr("198.51.100.200")},
		CacheCount: cacheCount,
		Roots:      tree.Roots(),
		Clock:      clk,
		Seed:       5,
		Metrics:    metrics.New(),
	}, n, netsim.LinkProfile{OneWay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return n, clk, plat, tree
}

// queries reads the platform's query counter from its registry.
func queries(p *platform.Platform) int64 {
	cfg := p.Config()
	return cfg.Metrics.Snapshot().Counter("platform.queries." + cfg.Name)
}

func newStub(n *netsim.Network, clk clock.Clock) *Resolver {
	return New(Config{
		ClientAddr: clientAddr,
		PlatformIP: ingressAddr,
		Clock:      clk,
	}, n)
}

func TestLookupResolvesThroughPlatform(t *testing.T) {
	n, clk, _, _ := setup(t, 1)
	r := newStub(n, clk)
	res, err := r.Lookup(context.Background(), "x-1.sub.cache.example.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromLocalCache {
		t.Error("first lookup claimed a local hit")
	}
	if len(res.Records) != 1 {
		t.Fatalf("records = %v", res.Records)
	}
	if res.RTT == 0 {
		t.Error("no RTT recorded")
	}
}

func TestRepeatLookupServedLocally(t *testing.T) {
	// §IV-B limitation (1): "each hostname can be queried only once".
	n, clk, plat, _ := setup(t, 1)
	r := newStub(n, clk)
	if _, err := r.Lookup(context.Background(), "x-1.sub.cache.example.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	before := queries(plat)
	res, err := r.Lookup(context.Background(), "x-1.sub.cache.example.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromLocalCache {
		t.Error("repeat lookup went upstream")
	}
	if got := queries(plat); got != before {
		t.Errorf("platform saw %d extra queries", got-before)
	}
}

func TestLocalTTLExpiryReleasesQuery(t *testing.T) {
	n, clk, plat, _ := setup(t, 1)
	r := newStub(n, clk)
	if _, err := r.Lookup(context.Background(), "x-2.sub.cache.example.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	clk.Advance(301 * time.Second)
	if _, err := r.Lookup(context.Background(), "x-2.sub.cache.example.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if got := queries(plat); got != 2 {
		t.Errorf("platform saw %d queries, want 2 after TTL expiry", got)
	}
}

func TestBrowserCacheCapsTTL(t *testing.T) {
	// Browser caches pin entries for ~60s regardless of DNS TTL; after
	// that the OS cache still holds the record, so no upstream query.
	n, clk, plat, _ := setup(t, 1)
	r := newStub(n, clk)
	if _, err := r.Lookup(context.Background(), "x-3.sub.cache.example.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	clk.Advance(90 * time.Second) // browser layer expired, OS layer not
	res, err := r.Lookup(context.Background(), "x-3.sub.cache.example.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromLocalCache {
		t.Error("OS cache should still answer")
	}
	if got := queries(plat); got != 1 {
		t.Errorf("platform saw %d queries, want 1", got)
	}
}

func TestDistinctNamesBypassLocalCaches(t *testing.T) {
	// The CNAME-chain bypass: distinct x-i names never hit local caches.
	n, clk, plat, _ := setup(t, 1)
	r := newStub(n, clk)
	for i := 1; i <= 10; i++ {
		res, err := r.Lookup(context.Background(), zone.ProbeName(i, "chain.example"), dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if res.FromLocalCache {
			t.Fatalf("probe %d answered locally", i)
		}
	}
	if got := queries(plat); got != 10 {
		t.Errorf("platform saw %d queries, want 10", got)
	}
}

func TestLocalCachesStoreOnlyFinalAnswer(t *testing.T) {
	// §IV-B2a: local caches "only receive the final answer" — the alias
	// chain is resolved platform-side, and the local cache key is the
	// queried alias, not the target.
	n, clk, _, _ := setup(t, 1)
	r := newStub(n, clk)
	res, err := r.Lookup(context.Background(), zone.ProbeName(1, "chain.example"), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	// The answer contains CNAME + A; the target name itself must not be
	// separately cached locally.
	if len(res.Records) != 2 {
		t.Fatalf("records = %v", res.Records)
	}
	for _, c := range r.LocalCaches() {
		q := dnswire.Question{Name: "name.chain.example.", Type: dnswire.TypeA, Class: dnswire.ClassIN}
		if c.Contains(q, clk.Now()) {
			t.Errorf("cache %s holds the chain target", c.ID)
		}
	}
}

func TestLookupErrorOnUnreachablePlatform(t *testing.T) {
	n := netsim.New(1)
	r := New(Config{ClientAddr: clientAddr, PlatformIP: ingressAddr, Clock: clock.NewVirtual()}, n)
	if _, err := r.Lookup(context.Background(), "a.example.", dnswire.TypeA); err == nil {
		t.Error("want error for unreachable platform")
	}
}
