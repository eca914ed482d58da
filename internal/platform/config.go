// Package platform implements the generic DNS resolution platform of the
// paper's Fig. 1: a set of ingress IP addresses that receive client
// queries, a load balancer that assigns each query to one of n hidden
// caches, and a set of egress IP addresses used to contact authoritative
// nameservers on cache misses.
//
// The platform is the *measured object* of the paper: CDE (internal/core)
// probes it from the outside and tries to recover n, the IP↔cache mapping
// and the egress set, all of which are explicit configuration here and
// therefore available as ground truth to the experiments.
package platform

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"dnscde/internal/clock"
	"dnscde/internal/dnscache"
	"dnscde/internal/loadbal"
	"dnscde/internal/metrics"
)

// EgressPolicy selects which egress IP issues an upstream query.
type EgressPolicy uint8

// Egress policies. The paper observes that "typically multiple IP
// addresses are involved in a resolution chain" — EgressRandom and
// EgressRoundRobin model that; EgressPerCache pins each cache to one
// egress address (a one-to-one correspondence the paper saw "in some
// cases").
const (
	EgressRandom EgressPolicy = iota + 1
	EgressRoundRobin
	EgressPerCache
)

// String returns the policy mnemonic.
func (p EgressPolicy) String() string {
	switch p {
	case EgressRandom:
		return "egress-random"
	case EgressRoundRobin:
		return "egress-round-robin"
	case EgressPerCache:
		return "egress-per-cache"
	default:
		return fmt.Sprintf("egress-policy%d", p)
	}
}

// Config describes one resolution platform.
type Config struct {
	// Name labels the platform in experiment output.
	Name string

	// IngressIPs receive client queries. At least one is required.
	IngressIPs []netip.Addr
	// EgressIPs contact authoritative nameservers. At least one is
	// required.
	EgressIPs []netip.Addr
	// CacheCount is n, the number of hidden caches. At least 1.
	CacheCount int
	// CachePolicy applies to every cache.
	CachePolicy dnscache.Policy
	// Selector is the load balancer's cache-selection strategy; nil
	// defaults to uniform random (the dominant strategy in the paper's
	// dataset: ">80% of the networks ... support unpredictable cache
	// selection").
	Selector loadbal.Selector
	// EgressPolicy picks the egress IP per upstream query; zero value
	// defaults to EgressRandom.
	EgressPolicy EgressPolicy

	// IngressClusters optionally restricts each ingress IP to a subset of
	// caches: IngressClusters[i] lists the cache indices reachable via
	// IngressIPs[i]. Empty means every ingress IP reaches every cache.
	// This models the paper's §IV-B1b cache clusters.
	IngressClusters [][]int

	// Roots are the addresses of the root nameservers used to start
	// iterative resolution. Required unless Forwarders is set.
	Roots []netip.Addr

	// Forwarders, when non-empty, turns the platform into a forwarding
	// resolver: cache misses are sent as recursive queries to one of
	// these upstream resolver addresses instead of being resolved
	// iteratively. This models the §VI observation that ingress
	// resolvers are "often configured to use upstream caches, such as
	// Google Public DNS, in which cases the client will only see the
	// forwarder" — CDE then measures the combined cache topology.
	Forwarders []netip.Addr

	// AllowedSuffixes, when non-empty, restricts resolution to names
	// under the listed domain suffixes; anything else is REFUSED. This
	// models §IV-B3's restricted platforms, which force the timing-based
	// (indirect egress) technique.
	AllowedSuffixes []string

	// Metrics, when non-nil, receives the platform's accounting: query
	// and recursion counters, per-cache hit/miss/expiry/eviction counts
	// and per-index selection counts, all prefixed with the platform
	// Name. Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry

	// Clock drives TTL arithmetic; nil defaults to the wall clock.
	Clock clock.Clock
	// Seed makes egress selection and retry jitter deterministic.
	Seed int64
	// CacheHitDelay is simulated processing time for answering from
	// cache; cache misses additionally pay real upstream round trips.
	CacheHitDelay time.Duration
	// MaxCNAMEChase bounds CNAME indirection; zero defaults to 8.
	MaxCNAMEChase int
	// QueryAAAA, when true, makes the platform also resolve the AAAA
	// record after answering an A query (Windows-resolver behaviour,
	// one of the query-pattern fingerprints of the §VI related work).
	QueryAAAA bool
	// EDNS, when true, attaches an EDNS0 OPT record to upstream queries
	// (RFC 6891). The paper's §II-C names EDNS adoption as one of the
	// mechanisms CDE-style studies can measure; the nameserver-side log
	// records its presence per query.
	EDNS bool
	// TrustAnswerChains, when true, accepts CNAME targets appended to the
	// answer section by authoritative servers that chase in-zone aliases
	// (BIND-style). When false (the default, matching hardened resolvers
	// like Unbound) the platform re-queries each CNAME target itself —
	// the behaviour the paper's §IV-B2a bypass technique relies on.
	TrustAnswerChains bool
}

// Config validation errors.
var (
	ErrNoIngress  = errors.New("platform: no ingress IPs")
	ErrNoEgress   = errors.New("platform: no egress IPs")
	ErrNoCaches   = errors.New("platform: cache count must be >= 1")
	ErrNoRoots    = errors.New("platform: no root nameserver addresses")
	ErrBadCluster = errors.New("platform: invalid ingress cluster")
)

// validate normalises cfg and applies defaults.
func (cfg *Config) validate() error {
	if len(cfg.IngressIPs) == 0 {
		return ErrNoIngress
	}
	if len(cfg.EgressIPs) == 0 {
		return ErrNoEgress
	}
	if cfg.CacheCount < 1 {
		return ErrNoCaches
	}
	if len(cfg.Roots) == 0 && len(cfg.Forwarders) == 0 {
		return ErrNoRoots
	}
	if len(cfg.IngressClusters) > 0 {
		if len(cfg.IngressClusters) != len(cfg.IngressIPs) {
			return fmt.Errorf("%w: %d clusters for %d ingress IPs",
				ErrBadCluster, len(cfg.IngressClusters), len(cfg.IngressIPs))
		}
		for i, cluster := range cfg.IngressClusters {
			if len(cluster) == 0 {
				return fmt.Errorf("%w: ingress %d has empty cluster", ErrBadCluster, i)
			}
			for _, idx := range cluster {
				if idx < 0 || idx >= cfg.CacheCount {
					return fmt.Errorf("%w: ingress %d references cache %d of %d",
						ErrBadCluster, i, idx, cfg.CacheCount)
				}
			}
		}
	}
	if cfg.Selector == nil {
		cfg.Selector = loadbal.NewRandom(cfg.Seed)
	}
	if cfg.EgressPolicy == 0 {
		cfg.EgressPolicy = EgressRandom
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.MaxCNAMEChase == 0 {
		cfg.MaxCNAMEChase = 8
	}
	return nil
}

// GroundTruth summarises the configuration parameters the CDE measurement
// tries to recover from the outside; experiments compare measured values
// against it.
type GroundTruth struct {
	Name        string
	IngressIPs  int
	EgressIPs   int
	Caches      int
	Selector    string
	SelectorCat loadbal.Category
}

// groundTruth derives the summary from a validated config.
func (cfg *Config) groundTruth() GroundTruth {
	return GroundTruth{
		Name:        cfg.Name,
		IngressIPs:  len(cfg.IngressIPs),
		EgressIPs:   len(cfg.EgressIPs),
		Caches:      cfg.CacheCount,
		Selector:    cfg.Selector.Name(),
		SelectorCat: cfg.Selector.Category(),
	}
}
