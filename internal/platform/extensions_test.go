package platform

import (
	"context"
	"net/netip"
	"testing"

	"dnscde/internal/dnswire"
	"dnscde/internal/loadbal"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/trace"
	"dnscde/internal/zone"
)

// TestForwarderPlatform builds a two-tier setup: a forwarder platform
// whose cache misses go to an upstream recursive platform, as in the
// paper's §VI Google-Public-DNS observation.
func TestForwarderPlatform(t *testing.T) {
	w := buildWorld(t, 10)

	reg := metrics.New()
	upstream := w.newPlatform(t, func(c *Config) {
		c.Name = "upstream"
		c.CacheCount = 2
		c.Selector = loadbal.NewRoundRobin()
		c.IngressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.150")}
		c.EgressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.250")}
		c.Metrics = reg
	})
	forwarder := w.newPlatform(t, func(c *Config) {
		c.Name = "forwarder"
		c.CacheCount = 1
		c.Roots = nil
		c.Forwarders = []netip.Addr{upstream.Config().IngressIPs[0]}
		c.IngressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.151")}
		c.EgressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.251")}
	})

	resp, _ := query(t, w, forwarder, "x-1.sub.cache.example.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
		t.Fatalf("resp = %s", resp.Summary())
	}
	// The nameserver only ever sees the *upstream's* egress IP — "the
	// client will only see the forwarder" and vice versa.
	srcs := w.child.Log().DistinctSources("")
	if len(srcs) != 1 || srcs[0] != netip.MustParseAddr("198.51.100.250") {
		t.Errorf("nameserver saw %v, want only the upstream egress", srcs)
	}
	// Both tiers cached the answer: a repeat query is a forwarder-cache
	// hit and adds no upstream traffic.
	before := count(reg, upstream, "queries")
	query(t, w, forwarder, "x-1.sub.cache.example.", dnswire.TypeA)
	if got := count(reg, upstream, "queries"); got != before {
		t.Errorf("upstream saw %d extra queries on forwarder cache hit", got-before)
	}
}

func TestForwarderEnumerationSeesUpstreamThroughForwarderMisses(t *testing.T) {
	// CDE through a forwarder observes the *combined* topology: the
	// upstream is only consulted while the forwarder's own caches still
	// miss, so the nameserver count is bounded by the forwarder tier.
	// With 3 forwarder caches and 2 upstream caches (round robin at both
	// tiers) the forwarder misses 3 times, the upstream receives those 3
	// queries and covers both of its caches: ω = 2.
	w := buildWorld(t, 10)
	upstream := w.newPlatform(t, func(c *Config) {
		c.Name = "upstream"
		c.CacheCount = 2
		c.Selector = loadbal.NewRoundRobin()
		c.IngressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.150")}
		c.EgressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.250")}
	})
	forwarder := w.newPlatform(t, func(c *Config) {
		c.Name = "forwarder"
		c.CacheCount = 3
		c.Selector = loadbal.NewRoundRobin()
		c.Roots = nil
		c.Forwarders = []netip.Addr{upstream.Config().IngressIPs[0]}
		c.IngressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.151")}
		c.EgressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.251")}
	})
	for i := 0; i < 12; i++ {
		query(t, w, forwarder, "x-2.sub.cache.example.", dnswire.TypeA)
	}
	if got := w.child.Log().CountName("x-2.sub.cache.example."); got != 2 {
		t.Errorf("nameserver saw %d queries, want 2 (upstream caches via 3 forwarder misses)", got)
	}
	// A single-cache forwarder in contrast shields the upstream after
	// one miss — the client-side view "only sees the forwarder".
	shielded := w.newPlatform(t, func(c *Config) {
		c.Name = "shielded"
		c.CacheCount = 1
		c.Roots = nil
		c.Forwarders = []netip.Addr{upstream.Config().IngressIPs[0]}
		c.IngressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.152")}
		c.EgressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.252")}
	})
	for i := 0; i < 12; i++ {
		query(t, w, shielded, "x-3.sub.cache.example.", dnswire.TypeA)
	}
	if got := w.child.Log().CountName("x-3.sub.cache.example."); got != 1 {
		t.Errorf("nameserver saw %d queries through single-cache forwarder, want 1", got)
	}
}

func TestForwarderUnreachableServFail(t *testing.T) {
	w := buildWorld(t, 5)
	forwarder := w.newPlatform(t, func(c *Config) {
		c.Roots = nil
		c.Forwarders = []netip.Addr{netip.MustParseAddr("203.0.113.99")} // nobody
		c.UpstreamRetries = 1
	})
	conn := w.net.Bind(clientAddr)
	resp, _, err := conn.Exchange(context.Background(),
		dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), forwarder.Config().IngressIPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestConfigRequiresRootsOrForwarders(t *testing.T) {
	w := buildWorld(t, 5)
	cfg := Config{
		IngressIPs: []netip.Addr{clientAddr},
		EgressIPs:  []netip.Addr{clientAddr},
		CacheCount: 1,
	}
	if _, err := New(cfg, w.net, netsim.LinkProfile{}); err == nil {
		t.Error("config without roots or forwarders accepted")
	}
	cfg.Forwarders = []netip.Addr{netip.MustParseAddr("203.0.113.1")}
	if _, err := New(cfg, w.net, netsim.LinkProfile{}); err != nil {
		t.Errorf("forwarder-only config rejected: %v", err)
	}
}

func TestEDNSAdvertisedUpstream(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, func(c *Config) { c.EDNS = true })
	query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	if share := w.child.Log().EDNSShare(""); share != 1 {
		t.Errorf("EDNS share at child = %v, want 1", share)
	}
	entry := w.child.Log().Entries()[0]
	if !entry.EDNS || entry.UDPSize != dnswire.MaxEDNSSize {
		t.Errorf("entry = %+v", entry)
	}

	w2 := buildWorld(t, 5)
	p2 := w2.newPlatform(t, nil) // EDNS off
	query(t, w2, p2, "x-1.sub.cache.example.", dnswire.TypeA)
	if share := w2.child.Log().EDNSShare(""); share != 0 {
		t.Errorf("EDNS share without EDNS = %v", share)
	}
}

func TestSetCacheDownShrinksRotation(t *testing.T) {
	// §II-B: "a DNS platform uses four caches, but our tool measures
	// two, namely two are down."
	w := buildWorld(t, 5)
	p := w.newPlatform(t, func(c *Config) {
		c.CacheCount = 4
		c.Selector = loadbal.NewRoundRobin()
	})
	for i := 0; i < 16; i++ {
		query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
	}
	if got := w.child.Log().CountName("x-1.sub.cache.example."); got != 4 {
		t.Fatalf("healthy platform: %d arrivals, want 4", got)
	}

	p.SetCacheDown(1, true)
	p.SetCacheDown(3, true)
	for i := 0; i < 16; i++ {
		query(t, w, p, "x-2.sub.cache.example.", dnswire.TypeA)
	}
	if got := w.child.Log().CountName("x-2.sub.cache.example."); got != 2 {
		t.Errorf("degraded platform: %d arrivals, want 2", got)
	}

	// Restoration brings the full set back.
	p.SetCacheDown(1, false)
	p.SetCacheDown(3, false)
	for i := 0; i < 16; i++ {
		query(t, w, p, "x-3.sub.cache.example.", dnswire.TypeA)
	}
	if got := w.child.Log().CountName("x-3.sub.cache.example."); got != 4 {
		t.Errorf("restored platform: %d arrivals, want 4", got)
	}
}

func TestAllCachesDownServFail(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, func(c *Config) { c.CacheCount = 2 })
	p.SetCacheDown(0, true)
	p.SetCacheDown(1, true)
	conn := w.net.Bind(clientAddr)
	resp, _, err := conn.Exchange(context.Background(),
		dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), p.Config().IngressIPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
	if p.SetCacheDown(99, true); false { // out-of-range must not panic
		t.Fatal("unreachable")
	}
}

func TestForwarderWithHierarchyProbeNames(t *testing.T) {
	// zone.ProbeName helper still resolves through two tiers.
	w := buildWorld(t, 10)
	upstream := w.newPlatform(t, func(c *Config) {
		c.IngressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.150")}
		c.EgressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.250")}
	})
	fwd := w.newPlatform(t, func(c *Config) {
		c.Roots = nil
		c.Forwarders = []netip.Addr{upstream.Config().IngressIPs[0]}
		c.IngressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.151")}
		c.EgressIPs = []netip.Addr{netip.MustParseAddr("198.51.100.251")}
	})
	resp, _ := query(t, w, fwd, zone.ProbeName(3, "chain.example"), dnswire.TypeA)
	if len(resp.Answer) != 2 {
		t.Errorf("chain through forwarder = %s", resp.Summary())
	}
}

// TestCNAMELoopHandling verifies both resolver modes survive a CNAME loop
// served by the authoritative side (which returns the partial chain).
func TestCNAMELoopHandling(t *testing.T) {
	w := buildWorld(t, 5)
	loopZone := zone.New("loop.example")
	loopAddr := netip.MustParseAddr("203.0.113.40")
	if err := zone.Apex(loopZone, "ns.loop.example.", loopAddr, 3600); err != nil {
		t.Fatal(err)
	}
	loopZone.MustAdd(dnswire.RR{Name: "a.loop.example.", Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.CNAMERecord{Target: "b.loop.example."}})
	loopZone.MustAdd(dnswire.RR{Name: "b.loop.example.", Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.CNAMERecord{Target: "a.loop.example."}})
	if _, err := w.tree.AttachAuthority(loopAddr, netsim.LinkProfile{}, loopZone); err != nil {
		t.Fatal(err)
	}

	for _, trust := range []bool{false, true} {
		p := w.newPlatform(t, func(c *Config) { c.TrustAnswerChains = trust })
		conn := w.net.Bind(clientAddr)
		resp, _, err := conn.Exchange(context.Background(),
			dnswire.NewQuery(1, "a.loop.example.", dnswire.TypeA), p.Config().IngressIPs[0])
		if err != nil {
			t.Fatalf("trust=%v: %v", trust, err)
		}
		if resp.Header.RCode != dnswire.RCodeServFail {
			t.Errorf("trust=%v: rcode = %v, want SERVFAIL on CNAME loop", trust, resp.Header.RCode)
		}
	}
}

// TestResolutionTrace verifies the opt-in trace records the full story of
// one cold resolution and the short story of the warm repeat.
func TestResolutionTrace(t *testing.T) {
	w := buildWorld(t, 5)
	p := w.newPlatform(t, nil)
	conn := w.net.Bind(clientAddr)

	tr := trace.New()
	ctx := trace.With(context.Background(), tr)
	if _, _, err := conn.Exchange(ctx, dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), p.Config().IngressIPs[0]); err != nil {
		t.Fatal(err)
	}
	kinds := tr.Kinds()
	var haveLB, haveMiss, haveUpstream, haveReferral bool
	for _, k := range kinds {
		switch k {
		case "lb":
			haveLB = true
		case "cache-miss":
			haveMiss = true
		case "upstream":
			haveUpstream = true
		case "referral":
			haveReferral = true
		}
	}
	if !haveLB || !haveMiss || !haveUpstream || !haveReferral {
		t.Errorf("cold trace incomplete: %v\n%s", kinds, tr)
	}

	warm := trace.New()
	ctx = trace.With(context.Background(), warm)
	if _, _, err := conn.Exchange(ctx, dnswire.NewQuery(2, "x-1.sub.cache.example.", dnswire.TypeA), p.Config().IngressIPs[0]); err != nil {
		t.Fatal(err)
	}
	wk := warm.Kinds()
	if len(wk) != 2 || wk[0] != "lb" || wk[1] != "cache-hit" {
		t.Errorf("warm trace = %v\n%s", wk, warm)
	}
}
