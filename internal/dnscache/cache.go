// Package dnscache implements the resolver-side DNS cache that the paper's
// methodology discovers and enumerates. A resolution platform (Fig. 1)
// holds n of these behind a load balancer; the CDE techniques count them
// from the outside.
//
// The cache supports the behaviours the paper calls out explicitly:
// per-record TTL decay, operator-configured minimum and maximum TTL
// clamping (§II-C footnote: "Some DNS resolution platforms enforce a
// minimal and a maximal TTL"), negative caching (RFC 2308), bounded
// capacity with LRU eviction, and hit/miss statistics.
package dnscache

import (
	"container/list"
	"sync"
	"time"

	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
)

// Policy configures cache behaviour.
type Policy struct {
	// MinTTL, when > 0, raises every stored TTL to at least this value —
	// the paper notes this confuses naive TTL-consistency measurements.
	MinTTL time.Duration
	// MaxTTL, when > 0, caps every stored TTL.
	MaxTTL time.Duration
	// NegativeTTL, when > 0, caps the TTL of negative entries. When 0 the
	// SOA minimum (RFC 2308) provided by the caller is used as-is.
	NegativeTTL time.Duration
	// Capacity, when > 0, bounds the number of entries; least recently
	// used entries are evicted first.
	Capacity int
}

// ClampTTL applies the policy's min/max to a TTL.
func (p Policy) ClampTTL(ttl time.Duration) time.Duration {
	if p.MaxTTL > 0 && ttl > p.MaxTTL {
		ttl = p.MaxTTL
	}
	if p.MinTTL > 0 && ttl < p.MinTTL {
		ttl = p.MinTTL
	}
	return ttl
}

// Entry is one cached response.
type Entry struct {
	// Records are the answer records (empty for negative entries).
	Records []dnswire.RR
	// RCode distinguishes NOERROR/NODATA from NXDOMAIN entries.
	RCode dnswire.RCode
	// Authority carries the SOA for negative entries.
	Authority []dnswire.RR
}

// Negative reports whether the entry caches a negative answer.
func (e Entry) Negative() bool { return len(e.Records) == 0 }

type item struct {
	key     string
	entry   Entry
	stored  time.Time
	expires time.Time
	lru     *list.Element
}

// Cache is a bounded TTL + LRU DNS cache. The zero value is not usable;
// use New. Cache is safe for concurrent use.
type Cache struct {
	// ID labels the cache instance; experiments use it as ground truth
	// when verifying CDE's enumeration ("which cache answered?").
	ID string

	policy Policy

	mu    sync.Mutex
	items map[string]*item
	order *list.List // front = most recently used

	// Accounting handles, nil (no-op) until SetMetrics attaches a
	// registry; the registry is the cache's only counter store.
	mHits      *metrics.Counter
	mMisses    *metrics.Counter
	mExpired   *metrics.Counter
	mEvictions *metrics.Counter
}

// New creates an empty cache with the given identity and policy.
func New(id string, policy Policy) *Cache {
	return &Cache{
		ID:     id,
		policy: policy,
		items:  make(map[string]*item),
		order:  list.New(),
	}
}

// SetMetrics attaches an accounting registry: cache events are counted
// under "dnscache.{hits,misses,expired,evictions}.<ID>". Without a
// registry they are not counted. A nil registry detaches instrumentation.
func (c *Cache) SetMetrics(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mHits = reg.Counter("dnscache.hits." + c.ID)
	c.mMisses = reg.Counter("dnscache.misses." + c.ID)
	c.mExpired = reg.Counter("dnscache.expired." + c.ID)
	c.mEvictions = reg.Counter("dnscache.evictions." + c.ID)
}

// Policy returns the cache's policy.
func (c *Cache) Policy() Policy { return c.policy }

// Len returns the number of live entries (including not-yet-expired ones).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Flush drops every entry.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[string]*item)
	c.order.Init()
}

// FlushName drops all entries for the given question name (any type).
func (c *Cache) FlushName(name string) {
	name = dnswire.CanonicalName(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, it := range c.items {
		if it.entry.ownerName() == name || keyName(key) == name {
			c.order.Remove(it.lru)
			delete(c.items, key)
		}
	}
}

// keyName extracts the name component of a Question.Key().
func keyName(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return key[:i]
		}
	}
	return key
}

// ownerName returns the owner of the first record, or "".
func (e Entry) ownerName() string {
	if len(e.Records) == 0 {
		return ""
	}
	return dnswire.CanonicalName(e.Records[0].Name)
}

// Put stores a response for q. The entry's lifetime is the minimum
// remaining TTL across its records (or the negative TTL), clamped by the
// policy. Entries with an effective TTL of zero are not stored.
func (c *Cache) Put(q dnswire.Question, e Entry, now time.Time) {
	// DNS TTLs are whole seconds (RFC 1035 §3.2.1), so the entry lifetime
	// must be too: a fractional lifetime (possible via sub-second policy
	// durations) would outlive the truncated record TTLs served from the
	// cache, and during the final partial second Get would hand out
	// records decayed to TTL 0 as fresh hits. Truncating aligns expiry
	// with the moment the served TTL reaches zero.
	ttl := c.effectiveTTL(e).Truncate(time.Second)
	if ttl <= 0 {
		return
	}
	// Store defensive copies so callers cannot mutate cached data, and
	// clamp each stored record's TTL so the TTLs served from cache agree
	// with the entry's policy-adjusted lifetime.
	e.Records = clampRecordTTLs(e.Records, c.policy)
	e.Authority = append([]dnswire.RR(nil), e.Authority...)

	key := q.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.items[key]; ok {
		c.order.Remove(old.lru)
		delete(c.items, key)
	}
	it := &item{key: key, entry: e, stored: now, expires: now.Add(ttl)}
	it.lru = c.order.PushFront(it)
	c.items[key] = it
	for c.policy.Capacity > 0 && len(c.items) > c.policy.Capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*item)
		c.order.Remove(back)
		delete(c.items, victim.key)
		c.mEvictions.Inc()
	}
}

// effectiveTTL computes the clamped lifetime of e.
func (c *Cache) effectiveTTL(e Entry) time.Duration {
	if e.Negative() {
		ttl := time.Duration(0)
		if len(e.Authority) > 0 {
			// RFC 2308: negative TTL is min(SOA TTL, SOA.MINIMUM).
			soaTTL := time.Duration(e.Authority[0].TTL) * time.Second
			if soa, ok := e.Authority[0].Data.(dnswire.SOARecord); ok {
				minField := time.Duration(soa.Minimum) * time.Second
				if minField < soaTTL {
					soaTTL = minField
				}
			}
			ttl = soaTTL
		}
		if c.policy.NegativeTTL > 0 && (ttl == 0 || ttl > c.policy.NegativeTTL) {
			ttl = c.policy.NegativeTTL
		}
		return c.policy.ClampTTL(ttl)
	}
	min := time.Duration(1<<63 - 1)
	for _, rr := range e.Records {
		if d := time.Duration(rr.TTL) * time.Second; d < min {
			min = d
		}
	}
	return c.policy.ClampTTL(min)
}

// Get looks up q. On a hit it returns the entry with record TTLs decayed
// by the time elapsed since storage, and refreshes the entry's LRU
// position. Expired entries count as misses and are removed.
func (c *Cache) Get(q dnswire.Question, now time.Time) (Entry, bool) {
	key := q.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[key]
	if !ok {
		c.mMisses.Inc()
		return Entry{}, false
	}
	if !now.Before(it.expires) {
		c.order.Remove(it.lru)
		delete(c.items, key)
		c.mExpired.Inc()
		c.mMisses.Inc()
		return Entry{}, false
	}
	c.order.MoveToFront(it.lru)
	c.mHits.Inc()

	// Guard against now < stored (virtual-clock rewind or skew): the
	// unsigned conversion would otherwise wrap into a huge elapsed value
	// and zero every served TTL.
	var elapsed uint32
	if d := now.Sub(it.stored); d > 0 {
		elapsed = uint32(d / time.Second)
	}
	out := Entry{RCode: it.entry.RCode}
	out.Records = decayTTLs(it.entry.Records, elapsed)
	out.Authority = decayTTLs(it.entry.Authority, elapsed)
	return out, true
}

// Contains reports whether q is cached and fresh without perturbing LRU
// order or statistics. CDE's honey-record mapping (§IV-B1b) checks
// presence without wanting to alter cache state.
func (c *Cache) Contains(q dnswire.Question, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[q.Key()]
	return ok && now.Before(it.expires)
}

func clampRecordTTLs(rrs []dnswire.RR, p Policy) []dnswire.RR {
	if len(rrs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, len(rrs))
	for i, rr := range rrs {
		d := p.ClampTTL(time.Duration(rr.TTL) * time.Second)
		rr.TTL = uint32(d / time.Second)
		out[i] = rr
	}
	return out
}

func decayTTLs(rrs []dnswire.RR, elapsed uint32) []dnswire.RR {
	if len(rrs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, len(rrs))
	for i, rr := range rrs {
		if rr.TTL > elapsed {
			rr.TTL -= elapsed
		} else {
			rr.TTL = 0
		}
		out[i] = rr
	}
	return out
}
