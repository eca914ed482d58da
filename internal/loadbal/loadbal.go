// Package loadbal implements the cache-selection logic of a DNS resolution
// platform's load balancer (Fig. 1 of the paper).
//
// §IV-A of the paper identifies two main categories in the wild —
// traffic-dependent selection (e.g. round robin, which tries to spread
// query volume evenly) and unpredictable selection (e.g. uniform random) —
// plus "more complex" strategies that depend on the requested domain or
// the client's source IP. All four are implemented here; the enumeration
// analysis of §V-B (coupon collector) applies to the unpredictable
// category, while round robin needs only q = n probes.
package loadbal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sync"

	"dnscde/internal/detpar"
	"dnscde/internal/dnswire"
)

// Category classifies a selection strategy, following §IV-A.
type Category uint8

// Strategy categories.
const (
	// TrafficDependent strategies spread query volume evenly; observing
	// them n times with distinct probes covers all caches.
	TrafficDependent Category = iota + 1
	// Unpredictable strategies pick caches randomly; enumeration becomes
	// a coupon-collector process.
	Unpredictable
	// KeyDependent strategies hash a property of the query (qname or
	// client address); repeated identical probes always hit one cache.
	KeyDependent
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case TrafficDependent:
		return "traffic-dependent"
	case Unpredictable:
		return "unpredictable"
	case KeyDependent:
		return "key-dependent"
	default:
		return fmt.Sprintf("category%d", c)
	}
}

// Names lists the selector names New accepts — the vocabulary of the
// scenario grammar's selector key and cdescan's -selector flag.
func Names() []string {
	return []string{"random", "round-robin", "hash-qname", "hash-source-ip"}
}

// New returns the selector called name (one of Names); seed seeds the
// random selector.
func New(name string, seed int64) (Selector, error) {
	switch name {
	case "random":
		return NewRandom(seed), nil
	case "round-robin":
		return NewRoundRobin(), nil
	case "hash-qname":
		return HashQName{}, nil
	case "hash-source-ip":
		return HashSourceIP{}, nil
	default:
		return nil, fmt.Errorf("loadbal: unknown selector %q", name)
	}
}

// Selector picks which of n caches handles a query. Implementations must
// be safe for concurrent use.
type Selector interface {
	// Select returns a cache index in [0, n). n is at least 1.
	Select(q dnswire.Question, src netip.Addr, n int) int
	// Category reports the strategy's §IV-A classification.
	Category() Category
	// Name returns a short identifier for logs and experiment output.
	Name() string
}

// RoundRobin cycles through caches in order — the paper's example of a
// traffic-dependent strategy.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

var _ Selector = (*RoundRobin)(nil)

// NewRoundRobin returns a round-robin selector starting at cache 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Select implements Selector.
func (r *RoundRobin) Select(_ dnswire.Question, _ netip.Addr, n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.next % n
	r.next = (r.next + 1) % n
	return idx
}

// Category implements Selector.
func (*RoundRobin) Category() Category { return TrafficDependent }

// Name implements Selector.
func (*RoundRobin) Name() string { return "round-robin" }

// Random picks a cache uniformly at random — the paper's representative of
// the unpredictable category, and the model behind Theorem 5.1.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
	src *detpar.CountingSource
}

var _ Selector = (*Random)(nil)

// NewRandom returns a uniform random selector with a deterministic seed.
func NewRandom(seed int64) *Random {
	src := detpar.NewCountingSource(seed)
	return &Random{rng: rand.New(src), src: src}
}

// Select implements Selector.
func (r *Random) Select(_ dnswire.Question, _ netip.Addr, n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Intn(n)
}

// Category implements Selector.
func (*Random) Category() Category { return Unpredictable }

// Name implements Selector.
func (*Random) Name() string { return "random" }

// HashQName maps each query name deterministically to a cache — one of the
// paper's "more complex" strategies ("a function of a requested domain in
// the query"). Identical probes always sample the same cache, which is why
// CDE needs unique probe names (the x-i names of §IV-B2).
type HashQName struct{}

var _ Selector = HashQName{}

// Select implements Selector.
func (HashQName) Select(q dnswire.Question, _ netip.Addr, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(dnswire.CanonicalName(q.Name)))
	return int(h.Sum32() % uint32(n))
}

// Category implements Selector.
func (HashQName) Category() Category { return KeyDependent }

// Name implements Selector.
func (HashQName) Name() string { return "hash-qname" }

// HashSourceIP maps each client address deterministically to a cache — the
// paper's other complex strategy ("a function of a source IP in a DNS
// request").
type HashSourceIP struct{}

var _ Selector = HashSourceIP{}

// Select implements Selector.
func (HashSourceIP) Select(_ dnswire.Question, src netip.Addr, n int) int {
	h := fnv.New32a()
	b, _ := src.MarshalBinary()
	_, _ = h.Write(b)
	return int(h.Sum32() % uint32(n))
}

// Category implements Selector.
func (HashSourceIP) Category() Category { return KeyDependent }

// Name implements Selector.
func (HashSourceIP) Name() string { return "hash-source-ip" }
