package platform

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnscde/internal/authns"
	"dnscde/internal/clock"
	"dnscde/internal/dnstree"
	"dnscde/internal/dnswire"
	"dnscde/internal/loadbal"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/zone"
)

var (
	parentNSAddr = netip.MustParseAddr("203.0.113.10")
	childNSAddr  = netip.MustParseAddr("203.0.113.11")
	targetAddr   = netip.MustParseAddr("192.0.2.80")
	clientAddr   = netip.MustParseAddr("198.18.0.1")
)

// world is a fully wired simulated Internet for platform tests.
type world struct {
	net    *netsim.Network
	clk    *clock.Virtual
	tree   *dnstree.Tree
	parent *authns.Server // authoritative for cache.example
	child  *authns.Server // authoritative for sub.cache.example
	hier   *zone.Hierarchy
}

// buildWorld wires root + TLD + the paper's two-zone CDE setup (cache.example
// with q CNAME-chain probes and a delegated sub.cache.example with q
// hierarchy probes).
func buildWorld(t *testing.T, q int) *world {
	t.Helper()
	w := &world{
		net: netsim.New(7),
		clk: clock.NewVirtual(),
	}
	tree, err := dnstree.Build(w.net, w.clk, netsim.LinkProfile{OneWay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w.tree = tree

	hier, err := zone.BuildHierarchy("cache.example", q, targetAddr, parentNSAddr, childNSAddr, 300)
	if err != nil {
		t.Fatal(err)
	}
	w.hier = hier
	chain, err := zone.BuildCNAMEChain("chain.example", q, targetAddr, parentNSAddr, 300)
	if err != nil {
		t.Fatal(err)
	}
	w.parent, err = tree.AttachAuthority(parentNSAddr, netsim.LinkProfile{OneWay: 10 * time.Millisecond}, hier.Parent, chain)
	if err != nil {
		t.Fatal(err)
	}
	w.child, err = tree.AttachAuthority(childNSAddr, netsim.LinkProfile{OneWay: 10 * time.Millisecond}, hier.Child)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// newPlatform builds a platform with sensible test defaults, letting the
// caller override pieces of the config.
func (w *world) newPlatform(t *testing.T, mutate func(*Config)) *Platform {
	t.Helper()
	cfg := Config{
		Name:       "test-platform",
		IngressIPs: []netip.Addr{netip.MustParseAddr("198.51.100.100")},
		EgressIPs:  []netip.Addr{netip.MustParseAddr("198.51.100.200")},
		CacheCount: 1,
		Roots:      w.tree.Roots(),
		Clock:      w.clk,
		Seed:       11,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg, w.net, netsim.LinkProfile{OneWay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// count reads the platform counter "platform.<event>.<name>" from reg.
func count(reg *metrics.Registry, p *Platform, event string) int64 {
	return reg.Snapshot().Counter("platform." + event + "." + p.Config().Name)
}

// query sends one client query to the platform's first ingress IP.
func query(t *testing.T, w *world, p *Platform, name string, typ dnswire.Type) (*dnswire.Message, time.Duration) {
	t.Helper()
	conn := w.net.Bind(clientAddr)
	resp, rtt, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, name, typ), p.Config().IngressIPs[0])
	if err != nil {
		t.Fatalf("query %s: %v", name, err)
	}
	return resp, rtt
}

func TestResolveThroughHierarchy(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, nil)
	resp, _ := query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if !resp.Header.RecursionAvailable {
		t.Error("RA not set")
	}
	if len(resp.Answer) != 1 {
		t.Fatalf("answers = %v", resp.Answer)
	}
	if a := resp.Answer[0].Data.(dnswire.ARecord); a.Addr != targetAddr {
		t.Errorf("addr = %v", a.Addr)
	}
	// Full cold-cache walk: root, TLD, parent, child each got >= 1 query.
	if w.tree.Root.Log().Len() == 0 || w.tree.TLD.Log().Len() == 0 {
		t.Error("resolution did not start at the roots")
	}
	if w.parent.Log().Len() == 0 || w.child.Log().Len() == 0 {
		t.Error("resolution did not walk the delegation")
	}
}

func TestSingleCacheSecondQueryIsHit(t *testing.T) {
	w := buildWorld(t, 5)
	reg := metrics.New()
	p := w.newPlatform(t, func(c *Config) { c.Metrics = reg })
	query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	before := w.child.Log().CountName("x-1.sub.cache.example.")
	query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	after := w.child.Log().CountName("x-1.sub.cache.example.")
	if before != 1 || after != 1 {
		t.Errorf("child saw %d then %d queries, want 1 both times (second from cache)", before, after)
	}
	if hits, misses := count(reg, p, "cache_hits"), count(reg, p, "cache_misses"); hits != 1 || misses != 1 {
		t.Errorf("cache hits = %d, misses = %d, want 1, 1", hits, misses)
	}
}

func TestCacheHitFasterThanMiss(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, func(c *Config) { c.CacheHitDelay = time.Millisecond })
	_, missRTT := query(t, w, p, "x-2.sub.cache.example.", dnswire.TypeA)
	_, hitRTT := query(t, w, p, "x-2.sub.cache.example.", dnswire.TypeA)
	if hitRTT >= missRTT {
		t.Errorf("hit %v not faster than miss %v — timing side channel broken", hitRTT, missRTT)
	}
	// The miss walks at least root+TLD+parent+child upstream at 2*(2+10)ms
	// legs minimum; the hit pays only the client leg.
	if hitRTT > missRTT/2 {
		t.Errorf("hit %v vs miss %v: separation too small", hitRTT, missRTT)
	}
}

func TestTTLExpiryTriggersRequery(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, nil)
	query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	w.clk.Advance(301 * time.Second) // probe records carry TTL 300
	query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	if got := w.child.Log().CountName("x-1.sub.cache.example."); got != 2 {
		t.Errorf("child saw %d queries, want 2 after TTL expiry", got)
	}
}

func TestMultiCacheEnumerationSignal(t *testing.T) {
	// The §IV-B1a signal: q identical queries against n caches produce
	// exactly n arrivals at the authoritative server (each cache misses
	// once, then hits).
	const n = 4
	w := buildWorld(t, 5)
	p := w.newPlatform(t, func(c *Config) {
		c.CacheCount = n
		c.Selector = loadbal.NewRoundRobin()
	})
	for i := 0; i < 4*n; i++ {
		query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	}
	if got := w.child.Log().CountName("x-1.sub.cache.example."); got != n {
		t.Errorf("child saw %d queries, want %d (one per cache)", got, n)
	}
}

func TestCNAMEChainRequeryBehaviour(t *testing.T) {
	// §IV-B2a: distinct aliases x-i all CNAME to name.chain.example. With
	// hardened (default) resolution each cache re-queries the target once;
	// the per-cache count of arrivals for the target equals the number of
	// caches.
	const n = 3
	w := buildWorld(t, 10)
	p := w.newPlatform(t, func(c *Config) {
		c.CacheCount = n
		c.Selector = loadbal.NewRoundRobin()
	})
	for i := 1; i <= 9; i++ {
		resp, _ := query(t, w, p, zone.ProbeName(i, "chain.example"), dnswire.TypeA)
		if len(resp.Answer) != 2 {
			t.Fatalf("probe %d: answer = %v", i, resp.Answer)
		}
	}
	if got := w.parent.Log().CountName("name.chain.example."); got != n {
		t.Errorf("target queried %d times, want %d (once per cache)", got, n)
	}
}

func TestCNAMEChainTrustedSkipsRequery(t *testing.T) {
	// Ablation: a platform that trusts BIND-style appended chains never
	// queries the target separately, defeating the §IV-B2a count.
	w := buildWorld(t, 10)
	p := w.newPlatform(t, func(c *Config) {
		c.CacheCount = 3
		c.Selector = loadbal.NewRoundRobin()
		c.TrustAnswerChains = true
	})
	for i := 1; i <= 9; i++ {
		resp, _ := query(t, w, p, zone.ProbeName(i, "chain.example"), dnswire.TypeA)
		if len(resp.Answer) != 2 {
			t.Fatalf("probe %d: answer = %v", i, resp.Answer)
		}
	}
	if got := w.parent.Log().CountName("name.chain.example."); got != 0 {
		t.Errorf("target queried %d times, want 0 with trusted chains", got)
	}
}

func TestNamesHierarchySignal(t *testing.T) {
	// §IV-B2b: after the first probe lands in a cache, that cache holds
	// the sub.cache.example delegation and asks the child directly; the
	// parent sees one query per cache.
	const n = 3
	w := buildWorld(t, 20)
	p := w.newPlatform(t, func(c *Config) {
		c.CacheCount = n
		c.Selector = loadbal.NewRoundRobin()
	})
	for i := 1; i <= 15; i++ {
		query(t, w, p, zone.ProbeName(i, "sub.cache.example"), dnswire.TypeA)
	}
	if got := w.parent.Log().CountSuffix("sub.cache.example."); got != n {
		t.Errorf("parent saw %d probe queries, want %d (one per cache)", got, n)
	}
	if got := w.child.Log().CountSuffix("sub.cache.example."); got != 15 {
		t.Errorf("child saw %d queries, want 15 (every probe)", got)
	}
}

func TestEgressIPsObservedAtNameserver(t *testing.T) {
	egress := netsim.AddrRange(netip.MustParseAddr("198.51.100.200"), 5)
	w := buildWorld(t, 30)
	p := w.newPlatform(t, func(c *Config) {
		c.EgressIPs = egress
		c.EgressPolicy = EgressRandom
	})
	for i := 1; i <= 30; i++ {
		query(t, w, p, zone.ProbeName(i, "sub.cache.example"), dnswire.TypeA)
	}
	seen := w.child.Log().DistinctSources("")
	if len(seen) != len(egress) {
		t.Errorf("observed %d egress IPs, want %d", len(seen), len(egress))
	}
	valid := make(map[netip.Addr]bool, len(egress))
	for _, ip := range egress {
		valid[ip] = true
	}
	for _, ip := range seen {
		if !valid[ip] {
			t.Errorf("unexpected source %v", ip)
		}
	}
}

func TestEgressPerCachePinning(t *testing.T) {
	egress := netsim.AddrRange(netip.MustParseAddr("198.51.100.200"), 4)
	w := buildWorld(t, 10)
	p := w.newPlatform(t, func(c *Config) {
		c.CacheCount = 1
		c.EgressIPs = egress
		c.EgressPolicy = EgressPerCache
	})
	for i := 1; i <= 10; i++ {
		query(t, w, p, zone.ProbeName(i, "sub.cache.example"), dnswire.TypeA)
	}
	if seen := w.child.Log().DistinctSources(""); len(seen) != 1 {
		t.Errorf("per-cache egress: saw %d IPs, want 1", len(seen))
	}
}

func TestAllowedSuffixesRefusesOthers(t *testing.T) {
	w := buildWorld(t, 5)
	reg := metrics.New()
	p := w.newPlatform(t, func(c *Config) {
		c.AllowedSuffixes = []string{"allowed.example"}
		c.Metrics = reg
	})
	conn := w.net.Bind(clientAddr)
	resp, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), p.Config().IngressIPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.Header.RCode)
	}
	if got := count(reg, p, "refused"); got != 1 {
		t.Errorf("refused = %d, want 1", got)
	}
}

func TestNegativeCaching(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, nil)
	resp, _ := query(t, w, p, "missing.sub.cache.example.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	query(t, w, p, "missing.sub.cache.example.", dnswire.TypeA)
	// SOA minimum is 60s, so the second query must be served from cache.
	if got := w.child.Log().CountName("missing.sub.cache.example."); got != 1 {
		t.Errorf("child saw %d queries, want 1 (negative caching)", got)
	}
}

func TestIngressClusters(t *testing.T) {
	ingress := netsim.AddrRange(netip.MustParseAddr("198.51.100.100"), 2)
	w := buildWorld(t, 20)
	_ = w.newPlatform(t, func(c *Config) {
		c.IngressIPs = ingress
		c.CacheCount = 4
		c.Selector = loadbal.NewRoundRobin()
		// Ingress 0 -> caches {0,1}, ingress 1 -> caches {2,3}.
		c.IngressClusters = [][]int{{0, 1}, {2, 3}}
	})
	conn := w.net.Bind(clientAddr)
	// Probe only via ingress 0: the enumeration signal must count its
	// cluster (2), not all 4 caches.
	for i := 0; i < 12; i++ {
		if _, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), ingress[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.child.Log().CountName("x-1.sub.cache.example."); got != 2 {
		t.Errorf("cluster 0: child saw %d queries, want 2", got)
	}
	// Now via ingress 1: two more caches must fetch it.
	for i := 0; i < 12; i++ {
		if _, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), ingress[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.child.Log().CountName("x-1.sub.cache.example."); got != 4 {
		t.Errorf("both clusters: child saw %d queries, want 4", got)
	}
}

func TestServFailWhenRootsUnreachable(t *testing.T) {
	w := buildWorld(t, 5)
	reg := metrics.New()
	p := w.newPlatform(t, func(c *Config) {
		c.Roots = []netip.Addr{netip.MustParseAddr("203.0.113.99")} // nobody there
		c.UpstreamRetries = 1
		c.Metrics = reg
	})
	conn := w.net.Bind(clientAddr)
	resp, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), p.Config().IngressIPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL", resp.Header.RCode)
	}
	if got := count(reg, p, "upstream_fail"); got != 1 {
		t.Errorf("upstream_fail = %d, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	w := buildWorld(t, 5)
	base := func() Config {
		return Config{
			IngressIPs: []netip.Addr{clientAddr},
			EgressIPs:  []netip.Addr{clientAddr},
			CacheCount: 1,
			Roots:      w.tree.Roots(),
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"no ingress", func(c *Config) { c.IngressIPs = nil }, ErrNoIngress},
		{"no egress", func(c *Config) { c.EgressIPs = nil }, ErrNoEgress},
		{"no caches", func(c *Config) { c.CacheCount = 0 }, ErrNoCaches},
		{"no roots", func(c *Config) { c.Roots = nil }, ErrNoRoots},
		{"cluster count mismatch", func(c *Config) { c.IngressClusters = [][]int{{0}, {0}} }, ErrBadCluster},
		{"cluster empty", func(c *Config) { c.IngressClusters = [][]int{{}} }, ErrBadCluster},
		{"cluster index out of range", func(c *Config) { c.IngressClusters = [][]int{{5}} }, ErrBadCluster},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if _, err := New(cfg, w.net, netsim.LinkProfile{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestGroundTruth(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, func(c *Config) {
		c.CacheCount = 7
		c.Selector = loadbal.NewRoundRobin()
	})
	gt := p.GroundTruth()
	if gt.Caches != 7 || gt.IngressIPs != 1 || gt.EgressIPs != 1 {
		t.Errorf("ground truth = %+v", gt)
	}
	if gt.Selector != "round-robin" || gt.SelectorCat != loadbal.TrafficDependent {
		t.Errorf("selector ground truth = %+v", gt)
	}
}

func TestFlushCaches(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, nil)
	query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	p.FlushCaches()
	query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	if got := w.child.Log().CountName("x-1.sub.cache.example."); got != 2 {
		t.Errorf("child saw %d queries, want 2 after flush", got)
	}
}

func TestFormErrOnEmptyQuery(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, nil)
	resp, _, err := w.net.Bind(clientAddr).Exchange(context.Background(), &dnswire.Message{}, p.Config().IngressIPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestResolutionSurvivesPacketLoss(t *testing.T) {
	w := buildWorld(t, 5)
	// Lossy client link, like the paper's Iranian networks.
	w.net.Register(clientAddr, netsim.LinkProfile{Loss: 0.11}, netsim.HandlerFunc(
		func(context.Context, netip.Addr, *dnswire.Message) (*dnswire.Message, error) {
			return nil, fmt.Errorf("client is not a server")
		}))
	p := w.newPlatform(t, func(c *Config) { c.UpstreamRetries = 4 })
	conn := w.net.Bind(clientAddr)
	okCount := 0
	for i := 1; i <= 5; i++ {
		resp, _, err := netsim.ExchangeRetry(context.Background(), conn,
			dnswire.NewQuery(uint16(i), zone.ProbeName(i, "sub.cache.example"), dnswire.TypeA),
			p.Config().IngressIPs[0], 10)
		if err == nil && resp.Header.RCode == dnswire.RCodeNoError {
			okCount++
		}
	}
	if okCount < 4 {
		t.Errorf("only %d/5 probes succeeded under 11%% loss with retries", okCount)
	}
}
