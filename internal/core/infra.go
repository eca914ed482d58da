package core

import (
	"fmt"
	"net/netip"
	"sync"

	"dnscde/internal/authns"
	"dnscde/internal/clock"
	"dnscde/internal/dnstree"
	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/zone"
)

// Infra is the prober-side measurement infrastructure of Fig. 1: the
// cache.example domain, its authoritative nameservers and their query
// logs. Sessions carve fresh probe names (and, for the hierarchy
// technique, fresh delegated child zones) out of the domain so repeated
// measurements of the same platform never collide in its caches — the
// "subdomains under cache.example" of §IV-A.
type Infra struct {
	// Domain is the base domain, e.g. "cache.example.".
	Domain string
	// Parent serves the base domain; its log is the primary observation
	// point.
	Parent *authns.Server
	// Child serves per-session delegated child zones on a separate
	// address, as in the paper's §IV-B2b two-server setup.
	Child *authns.Server

	// Target is the address probe names resolve to (a.b.c.e in the
	// paper's zone fragments).
	Target netip.Addr

	parentZone *zone.Zone
	parentAddr netip.Addr
	childAddr  netip.Addr
	ttl        uint32

	mu      sync.Mutex
	session int

	// Probe-cost accounting handles, nil (no-op) without a registry.
	metrics        *metrics.Registry
	mProbes        *metrics.Counter
	mProbeErrors   *metrics.Counter
	mReplicates    *metrics.Counter
	mEnumRounds    *metrics.Counter
	mInitSeeds     *metrics.Counter
	mValidateSeeds *metrics.Counter
}

// InfraConfig configures the measurement infrastructure.
type InfraConfig struct {
	// Domain under "example." owned by the prober; defaults to
	// "cache.example.".
	Domain string
	// ParentAddr and ChildAddr host the two authoritative servers.
	ParentAddr, ChildAddr netip.Addr
	// Target is the address answered for probe names.
	Target netip.Addr
	// TTL for probe records; defaults to 300.
	TTL uint32
	// Profile is the link profile of the nameservers.
	Profile netsim.LinkProfile
	// Metrics, when non-nil, receives the probe-cost accounting: probes
	// issued, carpet-bombing replicates, enumeration rounds and
	// init/validate seeds under the "core." prefix, plus the nameservers'
	// arrival counters under "authns.". Nil disables instrumentation.
	Metrics *metrics.Registry
}

// NewInfra builds the CDE zones, attaches them to the simulated DNS tree
// and returns the infrastructure handle.
func NewInfra(tree *dnstree.Tree, clk clock.Clock, cfg InfraConfig) (*Infra, error) {
	if cfg.Domain == "" {
		cfg.Domain = "cache.example."
	}
	cfg.Domain = dnswire.CanonicalName(cfg.Domain)
	if cfg.TTL == 0 {
		cfg.TTL = 300
	}

	parentZone := zone.New(cfg.Domain)
	if err := zone.Apex(parentZone, "ns."+cfg.Domain, cfg.ParentAddr, cfg.TTL); err != nil {
		return nil, fmt.Errorf("core: building %s: %w", cfg.Domain, err)
	}
	parent, err := tree.AttachAuthority(cfg.ParentAddr, cfg.Profile, parentZone)
	if err != nil {
		return nil, fmt.Errorf("core: attaching parent: %w", err)
	}
	child := authns.NewServer(nil, authns.WithClock(clk))
	tree.Net.Register(cfg.ChildAddr, cfg.Profile, child)

	in := &Infra{
		Domain:     cfg.Domain,
		Parent:     parent,
		Child:      child,
		Target:     cfg.Target,
		parentZone: parentZone,
		parentAddr: cfg.ParentAddr,
		childAddr:  cfg.ChildAddr,
		ttl:        cfg.TTL,
	}
	if reg := cfg.Metrics; reg != nil {
		parent.SetMetrics(reg)
		child.SetMetrics(reg)
		in.metrics = reg
		in.mProbes = reg.Counter("core.probes.sent")
		in.mProbeErrors = reg.Counter("core.probes.errors")
		in.mReplicates = reg.Counter("core.probes.replicates")
		in.mEnumRounds = reg.Counter("core.enum.rounds")
		in.mInitSeeds = reg.Counter("core.initvalidate.init_seeds")
		in.mValidateSeeds = reg.Counter("core.initvalidate.validate_seeds")
	}
	return in, nil
}

// Metrics returns the attached accounting registry (nil when accounting
// is off).
func (in *Infra) Metrics() *metrics.Registry { return in.metrics }

// countProbe records one issued probe and its outcome; replicate marks
// carpet-bombing repetitions beyond a probe's first transmission (§V).
func (in *Infra) countProbe(err error, replicate bool) {
	in.mProbes.Inc()
	if replicate {
		in.mReplicates.Inc()
	}
	if err != nil {
		in.mProbeErrors.Inc()
	}
}

// nextSessionID allocates a unique session number.
func (in *Infra) nextSessionID() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.session++
	return in.session
}

// SessionCursor returns the last allocated session number. Probe names
// are derived from session IDs, so a world checkpoint must capture the
// cursor: a restored run's next session must get the same ID (and thus
// probe the same names) as the uninterrupted run's.
func (in *Infra) SessionCursor() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.session
}

// RestoreSessionCursor repositions the session-ID allocator.
func (in *Infra) RestoreSessionCursor(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.session = n
}

// shardStride is the size of each shard's session-ID space. The base
// Infra allocates IDs 1, 2, 3, …; Shard(i) allocates from
// (i+1)*shardStride. No experiment comes near a million sessions per
// namespace, so the spaces never collide.
const shardStride = 1 << 20

// Shard returns a view of the infrastructure with its own session-ID
// namespace, disjoint from the base Infra's and from every other shard's.
// Parallel measurement loops give each work item the shard of its index:
// session (and therefore probe) names then depend only on the item's
// index, not on goroutine scheduling — which matters because hash-based
// cache selectors make measured results a function of the probed names.
// Zones, servers, logs and accounting handles are shared with the base
// Infra; calling Shard(i) twice yields views that collide with each
// other, so derive exactly one per parallel slot.
func (in *Infra) Shard(i int) *Infra {
	if i < 0 {
		i = 0
	}
	return &Infra{
		Domain:         in.Domain,
		Parent:         in.Parent,
		Child:          in.Child,
		Target:         in.Target,
		parentZone:     in.parentZone,
		parentAddr:     in.parentAddr,
		childAddr:      in.childAddr,
		ttl:            in.ttl,
		session:        (i + 1) * shardStride,
		metrics:        in.metrics,
		mProbes:        in.mProbes,
		mProbeErrors:   in.mProbeErrors,
		mReplicates:    in.mReplicates,
		mEnumRounds:    in.mEnumRounds,
		mInitSeeds:     in.mInitSeeds,
		mValidateSeeds: in.mValidateSeeds,
	}
}

// FlatSession is a direct-probing session (§IV-B1): one honey A record.
type FlatSession struct {
	// Honey is the probe name ("name.cache.example" in the paper).
	Honey string
	infra *Infra
}

// NewFlatSession plants a fresh honey record in the parent zone.
func (in *Infra) NewFlatSession() (*FlatSession, error) {
	return in.NewFlatSessionTTL(in.ttl)
}

// NewFlatSessionTTL plants a fresh honey record with an explicit TTL —
// the instrument of TTL-clamp inference, which compares the TTL a
// platform serves against the authoritative one.
func (in *Infra) NewFlatSessionTTL(ttl uint32) (*FlatSession, error) {
	id := in.nextSessionID()
	honey := fmt.Sprintf("h%d.%s", id, in.Domain)
	err := in.parentZone.Add(dnswire.RR{
		Name: honey, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.ARecord{Addr: in.Target},
	})
	if err != nil {
		return nil, fmt.Errorf("core: planting honey record: %w", err)
	}
	return &FlatSession{Honey: honey, infra: in}, nil
}

// ObservedCaches returns ω, the number of queries for the honey name that
// reached the nameserver (§IV-B1a: "The number of queries ω < q arriving
// at our nameserver is the number of caches"). Counting is per query
// type (largest group): resolvers with coupled follow-up lookups (e.g.
// AAAA after A) would otherwise double-count every cache miss.
func (s *FlatSession) ObservedCaches() int {
	return s.infra.Parent.Log().CountNameMaxType(s.Honey)
}

// FreshName returns the honey name with a unique uncached label prepended
// — §IV-B3's "honey record with a random subdomain prepended". The name
// does not exist, so it is never cached positively; every probe for it
// exercises the full egress path. For positively-resolvable fresh names
// use a new session instead.
func (s *FlatSession) FreshName(i int) string {
	return fmt.Sprintf("r%d.%s", i, s.Honey)
}

// ChainSession is a CNAME-chain bypass session (§IV-B2a): q alias records
// pointing at one target record.
type ChainSession struct {
	// Aliases are the q probe names x-1 … x-q.
	Aliases []string
	// TargetName is the common CNAME target whose arrival count is ω.
	TargetName string
	infra      *Infra
}

// NewChainSession plants q fresh aliases and their common target.
func (in *Infra) NewChainSession(q int) (*ChainSession, error) {
	if q < 1 {
		return nil, fmt.Errorf("core: chain session needs q >= 1, have %d", q)
	}
	id := in.nextSessionID()
	target := fmt.Sprintf("t%d.%s", id, in.Domain)
	if err := in.parentZone.Add(dnswire.RR{
		Name: target, Class: dnswire.ClassIN, TTL: in.ttl,
		Data: dnswire.ARecord{Addr: in.Target},
	}); err != nil {
		return nil, fmt.Errorf("core: planting chain target: %w", err)
	}
	aliases := make([]string, 0, q)
	for i := 1; i <= q; i++ {
		alias := fmt.Sprintf("x-%d-s%d.%s", i, id, in.Domain)
		if err := in.parentZone.Add(dnswire.RR{
			Name: alias, Class: dnswire.ClassIN, TTL: in.ttl,
			Data: dnswire.CNAMERecord{Target: target},
		}); err != nil {
			return nil, fmt.Errorf("core: planting alias %d: %w", i, err)
		}
		aliases = append(aliases, alias)
	}
	return &ChainSession{Aliases: aliases, TargetName: target, infra: in}, nil
}

// ObservedCachesBestType returns ω: the largest per-qtype arrival count
// for the common target — one query per cache that had to resolve it.
// Taking the best type is correct for single-type channels and robust
// for channels that query each alias under several types (e.g. an SMTP
// server checking TXT and MX) without the caller knowing which.
func (s *ChainSession) ObservedCachesBestType() int {
	return s.infra.Parent.Log().CountNameMaxType(s.TargetName)
}

// DeepChainSession is a CNAME chain of configurable depth:
// c1 → c2 → … → cD → target(A). It is the measurement instrument of the
// resolver fingerprinting extension: how deep a platform follows the
// chain (observed as per-link arrivals at the nameserver) reveals its
// CNAME-chase limit, one of the §VI query-pattern fingerprints.
type DeepChainSession struct {
	// Links are the chain owner names c1 … cD in order.
	Links []string
	// TargetName is the final A record.
	TargetName string
	infra      *Infra
}

// NewDeepChainSession plants a fresh chain of the given depth.
func (in *Infra) NewDeepChainSession(depth int) (*DeepChainSession, error) {
	if depth < 1 {
		return nil, fmt.Errorf("core: deep chain needs depth >= 1, have %d", depth)
	}
	id := in.nextSessionID()
	target := fmt.Sprintf("deep-t%d.%s", id, in.Domain)
	if err := in.parentZone.Add(dnswire.RR{
		Name: target, Class: dnswire.ClassIN, TTL: in.ttl,
		Data: dnswire.ARecord{Addr: in.Target},
	}); err != nil {
		return nil, fmt.Errorf("core: planting deep-chain target: %w", err)
	}
	links := make([]string, depth)
	for i := range links {
		links[i] = fmt.Sprintf("c%d-s%d.%s", i+1, id, in.Domain)
	}
	for i, link := range links {
		next := target
		if i+1 < depth {
			next = links[i+1]
		}
		if err := in.parentZone.Add(dnswire.RR{
			Name: link, Class: dnswire.ClassIN, TTL: in.ttl,
			Data: dnswire.CNAMERecord{Target: next},
		}); err != nil {
			return nil, fmt.Errorf("core: planting deep-chain link %d: %w", i+1, err)
		}
	}
	return &DeepChainSession{Links: links, TargetName: target, infra: in}, nil
}

// ObservedDepth returns how many chain links were individually queried at
// the nameserver — the depth the platform actually walked itself.
func (s *DeepChainSession) ObservedDepth() int {
	depth := 0
	for _, link := range s.Links {
		if s.infra.Parent.Log().CountName(link) > 0 {
			depth++
		}
	}
	return depth
}

// TargetReached reports whether the final A record was queried.
func (s *DeepChainSession) TargetReached() bool {
	return s.infra.Parent.Log().CountName(s.TargetName) > 0
}

// HierarchySession is a names-hierarchy bypass session (§IV-B2b): a fresh
// delegated child zone whose delegation re-fetches are counted at the
// parent.
type HierarchySession struct {
	// ChildOrigin is the session's delegated zone, e.g. "s7.cache.example.".
	ChildOrigin string
	// ProbeNames are q names inside the child zone.
	ProbeNames []string
	infra      *Infra
	childZone  *zone.Zone
}

// NewHierarchySession creates a fresh child zone sN.<domain>, delegates it
// from the parent (NS + glue pointing at the child server's address) and
// plants q probe records plus a wildcard for overflow probes.
func (in *Infra) NewHierarchySession(q int) (*HierarchySession, error) {
	if q < 1 {
		return nil, fmt.Errorf("core: hierarchy session needs q >= 1, have %d", q)
	}
	id := in.nextSessionID()
	childOrigin := fmt.Sprintf("s%d.%s", id, in.Domain)
	childNS := "ns." + childOrigin

	// Parent-side delegation, exactly the paper's zone fragment.
	if err := in.parentZone.Add(dnswire.RR{
		Name: childOrigin, Class: dnswire.ClassIN, TTL: in.ttl,
		Data: dnswire.NSRecord{Host: childNS},
	}); err != nil {
		return nil, fmt.Errorf("core: delegating %s: %w", childOrigin, err)
	}
	if err := in.parentZone.Add(dnswire.RR{
		Name: childNS, Class: dnswire.ClassIN, TTL: in.ttl,
		Data: dnswire.ARecord{Addr: in.childAddr},
	}); err != nil {
		return nil, fmt.Errorf("core: glue for %s: %w", childNS, err)
	}

	child := zone.New(childOrigin)
	if err := zone.Apex(child, childNS, in.childAddr, in.ttl); err != nil {
		return nil, fmt.Errorf("core: child apex: %w", err)
	}
	// Wildcard lets drivers use more probes than pre-planted without
	// another session.
	if err := child.Add(dnswire.RR{
		Name: "*." + childOrigin, Class: dnswire.ClassIN, TTL: in.ttl,
		Data: dnswire.ARecord{Addr: in.Target},
	}); err != nil {
		return nil, fmt.Errorf("core: child wildcard: %w", err)
	}
	names := make([]string, 0, q)
	for i := 1; i <= q; i++ {
		name := zone.ProbeName(i, childOrigin)
		if err := child.Add(dnswire.RR{
			Name: name, Class: dnswire.ClassIN, TTL: in.ttl,
			Data: dnswire.ARecord{Addr: in.Target},
		}); err != nil {
			return nil, fmt.Errorf("core: probe record %d: %w", i, err)
		}
		names = append(names, name)
	}
	in.Child.AddZone(child)

	return &HierarchySession{
		ChildOrigin: childOrigin,
		ProbeNames:  names,
		infra:       in,
		childZone:   child,
	}, nil
}

// ObservedCaches returns ω: the number of probe queries that arrived at
// the *parent* nameserver — caches holding the delegation skip it
// (§IV-B2b: "The number of queries arriving at the nameserver of
// cache.example indicate the number of caches").
func (s *HierarchySession) ObservedCaches() int {
	return s.infra.Parent.Log().CountSuffix(s.ChildOrigin)
}

// ProbeName returns the i-th probe name (1-based), synthesising names
// beyond the pre-planted set via the wildcard.
func (s *HierarchySession) ProbeName(i int) string {
	if i >= 1 && i <= len(s.ProbeNames) {
		return s.ProbeNames[i-1]
	}
	return zone.ProbeName(i, s.ChildOrigin)
}
