package platform

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"

	"dnscde/internal/detpar"
	"dnscde/internal/dnscache"
	"dnscde/internal/dnswire"
	"dnscde/internal/loadbal"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
)

// Platform is a running DNS resolution platform attached to a simulated
// network. It serves as a netsim.EventHandler at each of its ingress IPs
// and is safe for concurrent use.
type Platform struct {
	cfg    Config
	net    *netsim.Network
	caches []*dnscache.Cache

	mu        sync.Mutex
	rng       *rand.Rand
	rngSrc    *detpar.CountingSource
	egressRR  int
	ingressOf map[netip.Addr]int // ingress IP -> index into cfg.IngressIPs
	down      []bool             // caches taken out of rotation (§II-B)

	// Accounting handles, nil (no-op) without a configured registry; the
	// registry is the platform's only counter store.
	mQueries      *metrics.Counter
	mRecursions   *metrics.Counter
	mCacheHits    *metrics.Counter
	mCacheMisses  *metrics.Counter
	mRefused      *metrics.Counter
	mUpstreamFail *metrics.Counter
}

// New builds a platform from cfg and registers its ingress IPs on n with
// the given link profile.
func New(cfg Config, n *netsim.Network, profile netsim.LinkProfile) (*Platform, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rngSrc := detpar.NewCountingSource(cfg.Seed + 1)
	p := &Platform{
		cfg:       cfg,
		net:       n,
		caches:    make([]*dnscache.Cache, cfg.CacheCount),
		rng:       rand.New(rngSrc),
		rngSrc:    rngSrc,
		ingressOf: make(map[netip.Addr]int, len(cfg.IngressIPs)),
	}
	p.down = make([]bool, cfg.CacheCount)
	for i := range p.caches {
		p.caches[i] = dnscache.New(fmt.Sprintf("%s/cache-%d", cfg.Name, i), cfg.CachePolicy)
	}
	if reg := cfg.Metrics; reg != nil {
		for _, c := range p.caches {
			c.SetMetrics(reg)
		}
		p.cfg.Selector = loadbal.Instrument(p.cfg.Selector, reg, "loadbal."+cfg.Name)
		p.mQueries = reg.Counter("platform.queries." + cfg.Name)
		p.mRecursions = reg.Counter("platform.recursions." + cfg.Name)
		p.mCacheHits = reg.Counter("platform.cache_hits." + cfg.Name)
		p.mCacheMisses = reg.Counter("platform.cache_misses." + cfg.Name)
		p.mRefused = reg.Counter("platform.refused." + cfg.Name)
		p.mUpstreamFail = reg.Counter("platform.upstream_fail." + cfg.Name)
	}
	for i, ip := range cfg.IngressIPs {
		p.ingressOf[ip] = i
		n.Register(ip, profile, &front{p: p, ingress: ip})
	}
	return p, nil
}

// front binds one ingress IP to the platform so the pipeline knows which
// ingress address a query arrived at (the netsim handler interface only
// exposes the source).
type front struct {
	p       *Platform
	ingress netip.Addr
}

// GroundTruth returns the configuration summary the experiments verify
// CDE's measurements against.
func (p *Platform) GroundTruth() GroundTruth { return p.cfg.groundTruth() }

// Caches exposes the cache instances for white-box assertions in tests.
func (p *Platform) Caches() []*dnscache.Cache {
	out := make([]*dnscache.Cache, len(p.caches))
	copy(out, p.caches)
	return out
}

// Config returns a copy of the platform's configuration.
func (p *Platform) Config() Config { return p.cfg }

// FlushCaches clears every cache (operator intervention between
// experiment repetitions).
func (p *Platform) FlushCaches() {
	for _, c := range p.caches {
		c.Flush()
	}
}

// SetCacheDown marks cache idx as failed (or restores it): the load
// balancer stops sampling it. This models the §II-B resilience scenario —
// "a DNS platform uses four caches, but our tool measures two, namely two
// are down" — and lets experiments verify CDE detects the failure.
func (p *Platform) SetCacheDown(idx int, isDown bool) {
	if idx < 0 || idx >= len(p.caches) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down[idx] = isDown
}

// clusterFor returns the live cache indices reachable via the ingress IP.
func (p *Platform) clusterFor(ingress netip.Addr) []int {
	var base []int
	if idx, ok := p.ingressOf[ingress]; ok && len(p.cfg.IngressClusters) > 0 {
		base = p.cfg.IngressClusters[idx]
	} else {
		base = make([]int, len(p.caches))
		for i := range base {
			base[i] = i
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	live := make([]int, 0, len(base))
	for _, i := range base {
		if !p.down[i] {
			live = append(live, i)
		}
	}
	return live
}

// allowed reports whether the platform will resolve name at all.
func (p *Platform) allowed(name string) bool {
	if len(p.cfg.AllowedSuffixes) == 0 {
		return true
	}
	for _, suffix := range p.cfg.AllowedSuffixes {
		if dnswire.IsSubdomain(name, suffix) {
			return true
		}
	}
	return false
}

// pickEgress chooses the egress IP for one upstream query on behalf of
// cache cacheIdx.
func (p *Platform) pickEgress(cacheIdx int) netip.Addr {
	ips := p.cfg.EgressIPs
	switch p.cfg.EgressPolicy {
	case EgressRoundRobin:
		p.mu.Lock()
		defer p.mu.Unlock()
		ip := ips[p.egressRR%len(ips)]
		p.egressRR++
		return ip
	case EgressPerCache:
		return ips[cacheIdx%len(ips)]
	default: // EgressRandom
		p.mu.Lock()
		defer p.mu.Unlock()
		return ips[p.rng.Intn(len(ips))]
	}
}

// entryToResponse fills resp from a cache entry.
func (p *Platform) entryToResponse(resp *dnswire.Message, e dnscache.Entry) *dnswire.Message {
	resp.Header.RCode = e.RCode
	resp.Answer = append(resp.Answer, e.Records...)
	resp.Authority = append(resp.Authority, e.Authority...)
	return resp
}
