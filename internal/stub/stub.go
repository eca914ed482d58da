// Package stub models the client-side DNS machinery that sits between an
// *indirect* prober and the resolution platform: the operating system's
// stub-resolver cache and the browser's internal cache (§IV-B of the
// paper: "local caches include caches in operating systems, caches in stub
// resolvers, caches in web browsers and web proxies").
//
// These local caches impose the two §IV-B limitations on indirect probing:
// (1) each hostname can effectively be queried only once until its TTL
// expires, and (2) the prober cannot control the timing of the queries.
// The CDE bypasses (CNAME chains and names hierarchies) are validated
// against this package.
package stub

import (
	"context"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"dnscde/internal/clock"
	"dnscde/internal/dnscache"
	"dnscde/internal/dnswire"
	"dnscde/internal/netsim"
)

// Resolver is a stub resolver with a chain of local caches in front of a
// recursive resolution platform. It is safe for concurrent use.
type Resolver struct {
	// localCaches are consulted in order (browser cache first, then OS
	// cache, mirroring a real client stack).
	localCaches []*dnscache.Cache
	conn        netsim.Exchanger
	platformIP  netip.Addr
	clk         clock.Clock
	retries     int
}

// Config configures a stub resolver.
type Config struct {
	// ClientAddr is the client host address queries originate from.
	ClientAddr netip.Addr
	// PlatformIP is the ingress IP of the recursive platform to use.
	PlatformIP netip.Addr
	// Clock drives cache TTLs; nil defaults to the wall clock.
	Clock clock.Clock
	// Retries per upstream exchange on timeout; zero defaults to 2.
	Retries int
}

// New creates a stub resolver sending queries over n.
func New(cfg Config, n *netsim.Network) *Resolver {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	retries := cfg.Retries
	if retries == 0 {
		retries = 2
	}
	return &Resolver{
		localCaches: []*dnscache.Cache{
			// A small browser cache with a browser-style 60s cap on
			// positive TTLs.
			dnscache.New("browser", dnscache.Policy{MaxTTL: 60 * time.Second, Capacity: 256}),
			// The OS stub cache honours TTLs.
			dnscache.New("os", dnscache.Policy{Capacity: 4096}),
		},
		conn:       n.Bind(cfg.ClientAddr),
		platformIP: cfg.PlatformIP,
		clk:        clk,
		retries:    retries,
	}
}

// Result describes one stub lookup.
type Result struct {
	// Records are the answer records (possibly a CNAME chain + address).
	Records []dnswire.RR
	RCode   dnswire.RCode
	// FromLocalCache reports whether the answer came from a local cache
	// without reaching the platform.
	FromLocalCache bool
	// RTT is the observed latency (zero on local hits).
	RTT time.Duration
}

// Lookup resolves (name, qtype) through the local cache chain and, on
// miss, the platform. Answers are inserted into every local cache layer.
func (r *Resolver) Lookup(ctx context.Context, name string, qtype dnswire.Type) (Result, error) {
	q := dnswire.Question{Name: dnswire.CanonicalName(name), Type: qtype, Class: dnswire.ClassIN}
	now := r.clk.Now()
	for _, c := range r.localCaches {
		if e, ok := c.Get(q, now); ok {
			return Result{Records: e.Records, RCode: e.RCode, FromLocalCache: true}, nil
		}
	}
	query := dnswire.NewQuery(nextStubID(), q.Name, q.Type)
	resp, rtt, err := netsim.ExchangeRetry(ctx, r.conn, query, r.platformIP, r.retries+1)
	if err != nil {
		return Result{}, fmt.Errorf("stub: lookup %s: %w", q.Name, err)
	}
	entry := dnscache.Entry{Records: resp.Answer, RCode: resp.Header.RCode, Authority: resp.Authority}
	// The local caches only ever see the *final* answer — the platform
	// resolves CNAME redirections internally (§IV-B2a: "The local caches
	// are not involved in the resolution process ... and only receive the
	// final answer").
	storedAt := r.clk.Now()
	for _, c := range r.localCaches {
		c.Put(q, entry, storedAt)
	}
	return Result{Records: resp.Answer, RCode: resp.Header.RCode, RTT: rtt}, nil
}

// LocalCaches exposes the layers for white-box assertions in tests.
func (r *Resolver) LocalCaches() []*dnscache.Cache {
	out := make([]*dnscache.Cache, len(r.localCaches))
	copy(out, r.localCaches)
	return out
}

// _stubID generates message IDs for stub queries.
var _stubID atomic.Uint32

func nextStubID() uint16 { return uint16(_stubID.Add(1)) }
