package core

import (
	"context"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"dnscde/internal/clock"
	"dnscde/internal/dnstree"
	"dnscde/internal/dnswire"
	"dnscde/internal/loadbal"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
	"dnscde/internal/stub"
)

var (
	parentAddr = netip.MustParseAddr("203.0.113.20")
	childAddr  = netip.MustParseAddr("203.0.113.21")
	targetAddr = netip.MustParseAddr("192.0.2.80")
	clientAddr = netip.MustParseAddr("198.18.0.1")
)

// testWorld is a wired simulated Internet with a CDE infrastructure.
type testWorld struct {
	net   *netsim.Network
	clk   *clock.Virtual
	tree  *dnstree.Tree
	infra *Infra
	reg   *metrics.Registry

	nextIngress netip.Addr
	nextEgress  netip.Addr
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	w := &testWorld{
		net:         netsim.New(99),
		clk:         clock.NewVirtual(),
		reg:         metrics.New(),
		nextIngress: netip.MustParseAddr("198.51.100.10"),
		nextEgress:  netip.MustParseAddr("198.51.101.10"),
	}
	tree, err := dnstree.Build(w.net, w.clk, netsim.LinkProfile{OneWay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w.tree = tree
	infra, err := NewInfra(tree, w.clk, InfraConfig{
		ParentAddr: parentAddr,
		ChildAddr:  childAddr,
		Target:     targetAddr,
		Profile:    netsim.LinkProfile{OneWay: 10 * time.Millisecond},
		Metrics:    w.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.infra = infra
	return w
}

// platformOpts configures newPlatform.
type platformOpts struct {
	caches   int
	ingress  int
	egress   int
	selector loadbal.Selector
	mutate   func(*platform.Config)
}

// newPlatform creates a platform with fresh ingress/egress address ranges.
func (w *testWorld) newPlatform(t *testing.T, o platformOpts) *platform.Platform {
	t.Helper()
	if o.caches == 0 {
		o.caches = 1
	}
	if o.ingress == 0 {
		o.ingress = 1
	}
	if o.egress == 0 {
		o.egress = 1
	}
	ingress := netsim.AddrRange(w.nextIngress, o.ingress)
	w.nextIngress = ingress[len(ingress)-1].Next()
	egress := netsim.AddrRange(w.nextEgress, o.egress)
	w.nextEgress = egress[len(egress)-1].Next()

	cfg := platform.Config{
		Name:       "target",
		IngressIPs: ingress,
		EgressIPs:  egress,
		CacheCount: o.caches,
		Selector:   o.selector,
		Roots:      w.tree.Roots(),
		Clock:      w.clk,
		Seed:       42,
	}
	if o.mutate != nil {
		o.mutate(&cfg)
	}
	p, err := platform.New(cfg, w.net, netsim.LinkProfile{OneWay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (w *testWorld) directProber(p *platform.Platform) *DirectProber {
	return NewDirectProber(w.net, clientAddr, p.Config().IngressIPs[0], 0)
}

func (w *testWorld) indirectProber(p *platform.Platform) *IndirectProber {
	s := stub.New(stub.Config{
		ClientAddr: clientAddr,
		PlatformIP: p.Config().IngressIPs[0],
		Clock:      w.clk,
	}, w.net)
	return NewIndirectProber(s)
}

func TestEnumerateDirectRoundRobinExact(t *testing.T) {
	w := newTestWorld(t)
	for _, n := range []int{1, 2, 4, 7} {
		plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRoundRobin()})
		res, err := EnumerateDirect(context.Background(), w.directProber(plat), w.infra, EnumOptions{Queries: 4 * n})
		if err != nil {
			t.Fatal(err)
		}
		if res.Caches != n {
			t.Errorf("n=%d: measured %d caches", n, res.Caches)
		}
		if res.Technique != TechniqueDirect {
			t.Errorf("technique = %q", res.Technique)
		}
	}
}

func TestEnumerateDirectRandomSelector(t *testing.T) {
	w := newTestWorld(t)
	for _, n := range []int{1, 3, 6} {
		plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRandom(7)})
		q := RecommendedQueries(n, 0.999)
		res, err := EnumerateDirect(context.Background(), w.directProber(plat), w.infra, EnumOptions{Queries: q})
		if err != nil {
			t.Fatal(err)
		}
		if res.Caches != n {
			t.Errorf("n=%d (q=%d): measured %d caches", n, q, res.Caches)
		}
	}
}

func TestEnumerateDirectRejectsIndirectProber(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{})
	if _, err := EnumerateDirect(context.Background(), w.indirectProber(plat), w.infra, EnumOptions{Queries: 4}); err == nil {
		t.Error("indirect prober accepted for direct enumeration")
	}
}

func TestEnumerateChainIndirect(t *testing.T) {
	// §IV-B2a through browser/OS caches: distinct aliases bypass them.
	w := newTestWorld(t)
	for _, n := range []int{1, 3, 5} {
		plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRandom(3)})
		res, err := EnumerateChain(context.Background(), w.indirectProber(plat), w.infra,
			EnumOptions{Queries: RecommendedQueries(n, 0.999)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Caches != n {
			t.Errorf("n=%d: measured %d caches", n, res.Caches)
		}
	}
}

func TestEnumerateHierarchyIndirect(t *testing.T) {
	w := newTestWorld(t)
	for _, n := range []int{1, 2, 5} {
		plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRandom(5)})
		res, err := EnumerateHierarchy(context.Background(), w.indirectProber(plat), w.infra,
			EnumOptions{Queries: RecommendedQueries(n, 0.999)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Caches != n {
			t.Errorf("n=%d: measured %d caches", n, res.Caches)
		}
	}
}

func TestEnumerateDispatchesOnAccessMode(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 2, selector: loadbal.NewRoundRobin()})
	res, err := EnumerateAdaptive(context.Background(), w.directProber(plat), w.infra, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueDirect {
		t.Errorf("direct prober used %q", res.Technique)
	}
	plat2 := w.newPlatform(t, platformOpts{caches: 2, selector: loadbal.NewRoundRobin()})
	res, err = EnumerateAdaptive(context.Background(), w.indirectProber(plat2), w.infra, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueHierarchy {
		t.Errorf("indirect prober used %q", res.Technique)
	}
}

func TestRepeatedSessionsAreIndependent(t *testing.T) {
	// Re-measuring the same platform must not be poisoned by records
	// cached during the previous session.
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 3, selector: loadbal.NewRoundRobin()})
	p := w.directProber(plat)
	for round := 0; round < 3; round++ {
		res, err := EnumerateDirect(context.Background(), p, w.infra, EnumOptions{Queries: 12})
		if err != nil {
			t.Fatal(err)
		}
		if res.Caches != 3 {
			t.Errorf("round %d: measured %d caches", round, res.Caches)
		}
	}
}

func TestEnumerationWithHashQNameSelector(t *testing.T) {
	// Key-dependent selection: identical queries always hit one cache, so
	// the direct technique underestimates (1); the distinct-name
	// hierarchy technique still spreads across caches.
	w := newTestWorld(t)
	const n = 4
	plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.HashQName{}})
	direct, err := EnumerateDirect(context.Background(), w.directProber(plat), w.infra, EnumOptions{Queries: 40})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Caches != 1 {
		t.Errorf("direct technique vs hash-qname: measured %d, want 1 (single cache sampled)", direct.Caches)
	}
	plat2 := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.HashQName{}})
	hier, err := EnumerateHierarchy(context.Background(), w.directProber(plat2), w.infra, EnumOptions{Queries: 60})
	if err != nil {
		t.Fatal(err)
	}
	if hier.Caches != n {
		t.Errorf("hierarchy technique vs hash-qname: measured %d, want %d", hier.Caches, n)
	}
}

func TestCarpetBombingUnderLoss(t *testing.T) {
	// §V: 11% packet loss (the paper's Iran case); replication keeps the
	// enumeration accurate.
	w := newTestWorld(t)
	w.net.Register(clientAddr, netsim.LinkProfile{Loss: 0.11}, netsim.HandlerFunc(
		func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			return dnswire.NewResponse(q), nil
		}))
	const n = 4
	plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRandom(9)})
	k := CarpetBombingFactor(1-0.89*0.89, 0.99) // per-exchange loss
	res, err := EnumerateDirect(context.Background(), w.directProber(plat), w.infra,
		EnumOptions{Queries: RecommendedQueries(n, 0.999), Replicates: k})
	if err != nil {
		t.Fatal(err)
	}
	if res.Caches != n {
		t.Errorf("measured %d caches under loss with K=%d", res.Caches, k)
	}
	if res.ProbeErrors == 0 {
		t.Error("expected some probe losses at 11% packet loss")
	}
}

func TestAllProbesFailed(t *testing.T) {
	w := newTestWorld(t)
	// Prober aimed at an address with no platform.
	p := NewDirectProber(w.net, clientAddr, netip.MustParseAddr("198.51.100.250"), 0)
	_, err := EnumerateDirect(context.Background(), p, w.infra, EnumOptions{Queries: 3})
	if err == nil {
		t.Error("want error when every probe fails")
	}
}

func TestMapIngressClustersSharedCaches(t *testing.T) {
	// One platform, 3 ingress IPs, all sharing the same caches → one
	// cluster.
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 2, ingress: 3, selector: loadbal.NewRandom(1)})
	ips := plat.Config().IngressIPs
	res, err := MapIngressClusters(context.Background(), w.infra, ips, func(ip netip.Addr) Prober {
		return NewDirectProber(w.net, clientAddr, ip, 0)
	}, MappingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %v, want 1", res.Clusters)
	}
	if len(res.Clusters[0]) != 3 {
		t.Errorf("cluster size = %d, want 3", len(res.Clusters[0]))
	}
}

func TestMapIngressClustersDisjointCaches(t *testing.T) {
	// One platform, 4 ingress IPs in two disjoint cache clusters.
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 4, ingress: 4, selector: loadbal.NewRandom(1),
		mutate: func(c *platform.Config) {
			c.IngressClusters = [][]int{{0, 1}, {0, 1}, {2, 3}, {2, 3}}
		}})
	ips := plat.Config().IngressIPs
	res, err := MapIngressClusters(context.Background(), w.infra, ips, func(ip netip.Addr) Prober {
		return NewDirectProber(w.net, clientAddr, ip, 0)
	}, MappingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v, want 2", res.Clusters)
	}
	for i, cluster := range res.Clusters {
		if len(cluster) != 2 {
			t.Errorf("cluster %d = %v, want 2 members", i, cluster)
		}
	}
	// Membership must match ground truth: {ips[0], ips[1]} and {ips[2], ips[3]}.
	if !(res.Clusters[0][0] == ips[0] && res.Clusters[0][1] == ips[1]) {
		t.Errorf("cluster 0 = %v", res.Clusters[0])
	}
}

func TestDiscoverEgress(t *testing.T) {
	w := newTestWorld(t)
	const egressCount = 6
	plat := w.newPlatform(t, platformOpts{caches: 2, egress: egressCount, selector: loadbal.NewRandom(1)})
	res, err := DiscoverEgressAdaptive(context.Background(), w.directProber(plat), w.infra, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPs) != egressCount {
		t.Errorf("discovered %d egress IPs, want %d", len(res.IPs), egressCount)
	}
	valid := make(map[netip.Addr]bool)
	for _, ip := range plat.Config().EgressIPs {
		valid[ip] = true
	}
	for _, ip := range res.IPs {
		if !valid[ip] {
			t.Errorf("spurious egress IP %v", ip)
		}
	}
}

func TestInitValidateCoversAllCaches(t *testing.T) {
	for _, tc := range []struct{ n, N int }{{4, 24}} {
		w := newTestWorld(t)
		plat := w.newPlatform(t, platformOpts{caches: tc.n, selector: loadbal.NewRandom(2)})
		res, err := InitValidate(context.Background(), w.directProber(plat), w.infra,
			InitValidateOptions{N: tc.N})
		if err != nil {
			t.Fatalf("n=%d N=%d: %v", tc.n, tc.N, err)
		}
		if res.Caches != tc.n {
			t.Errorf("n=%d N=%d: measured %d caches, want %d", tc.n, tc.N, res.Caches, tc.n)
		}
		if res.InitArrivals < 1 || res.InitArrivals > tc.n {
			t.Errorf("n=%d N=%d: init arrivals = %d", tc.n, tc.N, res.InitArrivals)
		}
		if res.ValidateHits < res.N-tc.n {
			t.Errorf("n=%d N=%d: validate hits = %d of N=%d", tc.n, tc.N, res.ValidateHits, res.N)
		}
	}
}

// inFlightProber records the largest number of probes outstanding at once.
type inFlightProber struct {
	Prober
	cur, peak atomic.Int32
}

func (p *inFlightProber) Probe(ctx context.Context, name string, qtype dnswire.Type) (ProbeResult, error) {
	n := p.cur.Add(1)
	defer p.cur.Add(-1)
	for {
		peak := p.peak.Load()
		if n <= peak || p.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	return p.Prober.Probe(ctx, name, qtype)
}

func TestInitValidateConcurrencyBounded(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{caches: 2, selector: loadbal.NewRandom(2)})
	p := &inFlightProber{Prober: w.directProber(plat)}
	res, err := InitValidate(context.Background(), p, w.infra, InitValidateOptions{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Caches != 2 {
		t.Errorf("measured %d caches", res.Caches)
	}
	// Probes go out in rapid succession: never more than one in flight.
	if peak := p.peak.Load(); peak != 1 {
		t.Errorf("peak in-flight probes = %d, want 1", peak)
	}
}

func TestTimingDirect(t *testing.T) {
	w := newTestWorld(t)
	for _, n := range []int{1, 3, 5} {
		plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRandom(4)})
		res, err := EnumerateTimingDirect(context.Background(), w.directProber(plat), w.infra,
			TimingOptions{CountProbes: RecommendedQueries(n, 0.999)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Caches != n {
			t.Errorf("n=%d: timing channel measured %d caches (threshold %v)", n, res.Caches, res.Threshold)
		}
		if res.Threshold <= 0 {
			t.Error("no threshold derived")
		}
	}
}

func TestTimingDirectRejectsIndirect(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{})
	if _, err := EnumerateTimingDirect(context.Background(), w.indirectProber(plat), w.infra, TimingOptions{}); err == nil {
		t.Error("indirect prober accepted")
	}
}

func TestTimingIndirect(t *testing.T) {
	w := newTestWorld(t)
	for _, n := range []int{1, 3} {
		plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRandom(8)})
		res, err := EnumerateTimingIndirect(context.Background(), w.indirectProber(plat), w.infra,
			TimingOptions{CountProbes: RecommendedQueries(n, 0.999)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Caches != n {
			t.Errorf("n=%d: indirect timing measured %d caches", n, res.Caches)
		}
	}
}

func TestTimingKMeansThreshold(t *testing.T) {
	w := newTestWorld(t)
	const n = 3
	plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRandom(4)})
	res, err := EnumerateTimingDirect(context.Background(), w.directProber(plat), w.infra,
		TimingOptions{CountProbes: RecommendedQueries(n, 0.999), Threshold: KMeansThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if res.Caches != n {
		t.Errorf("kmeans threshold: measured %d caches", res.Caches)
	}
}

func TestSessionsProduceUniqueNames(t *testing.T) {
	w := newTestWorld(t)
	seen := make(map[string]bool)
	for i := 0; i < 5; i++ {
		fs, err := w.infra.NewFlatSession()
		if err != nil {
			t.Fatal(err)
		}
		if seen[fs.Honey] {
			t.Fatalf("duplicate honey name %q", fs.Honey)
		}
		seen[fs.Honey] = true
	}
	cs, err := w.infra.NewChainSession(3)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := w.infra.NewHierarchySession(3)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]string{cs.TargetName}, cs.Aliases...), hs.ProbeNames...)
	for _, name := range all {
		if seen[name] {
			t.Fatalf("duplicate probe name %q", name)
		}
		seen[name] = true
	}
}

func TestHierarchySessionWildcardOverflow(t *testing.T) {
	w := newTestWorld(t)
	hs, err := w.infra.NewHierarchySession(2)
	if err != nil {
		t.Fatal(err)
	}
	plat := w.newPlatform(t, platformOpts{})
	p := w.directProber(plat)
	// Probe index beyond the pre-planted set resolves via the wildcard.
	pr, err := p.Probe(context.Background(), hs.ProbeName(10), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if pr.RCode != dnswire.RCodeNoError || len(pr.Records) == 0 {
		t.Errorf("overflow probe: rcode=%v records=%v", pr.RCode, pr.Records)
	}
}

func TestEnumerateUntilCompleteAccountsProbes(t *testing.T) {
	// The completion instrument must (a) actually reach the target cache
	// count and (b) charge every probe it spent to the infrastructure's
	// cost registry, so experiments can read costs from metrics rather
	// than driver bookkeeping.
	w := newTestWorld(t)
	const n = 5
	plat := w.newPlatform(t, platformOpts{caches: n, selector: loadbal.NewRandom(11)})
	p := w.directProber(plat)

	before := w.reg.Snapshot()
	res, err := EnumerateUntilComplete(context.Background(), p, w.infra, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Caches != n {
		t.Fatalf("Caches = %d, want %d", res.Caches, n)
	}
	if res.ProbesSent < n {
		t.Errorf("ProbesSent = %d, want >= %d (coupon collection needs at least n draws)", res.ProbesSent, n)
	}
	diff := w.reg.Snapshot().Diff(before)
	if got := diff.Counter("core.probes.sent"); got != int64(res.ProbesSent) {
		t.Errorf("core.probes.sent = %d, want %d (driver's ProbesSent)", got, res.ProbesSent)
	}
	if got := diff.Counter("core.enum.rounds"); got != 1 {
		t.Errorf("core.enum.rounds = %d, want 1", got)
	}
	if got := diff.Counter("core.probes.errors"); got != 0 {
		t.Errorf("core.probes.errors = %d, want 0 on a lossless network", got)
	}
}

func TestEnumerateUntilCompleteRejectsBadTarget(t *testing.T) {
	w := newTestWorld(t)
	plat := w.newPlatform(t, platformOpts{})
	if _, err := EnumerateUntilComplete(context.Background(), w.directProber(plat), w.infra, 0, 0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := EnumerateUntilComplete(context.Background(), w.indirectProber(plat), w.infra, 1, 0); err == nil {
		t.Error("indirect prober accepted")
	}
}
