package dnscache

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
)

var _epoch = time.Date(2017, time.June, 26, 0, 0, 0, 0, time.UTC)

// countedCache returns cache "c1" with a fresh registry attached, so a
// test can read its event counters back with count.
func countedCache(p Policy) (*Cache, *metrics.Registry) {
	c := New("c1", p)
	reg := metrics.New()
	c.SetMetrics(reg)
	return c, reg
}

// count reads counter "dnscache.<event>.c1" from reg.
func count(reg *metrics.Registry, event string) int64 {
	return reg.Snapshot().Counter("dnscache." + event + ".c1")
}

func q(name string) dnswire.Question {
	return dnswire.Question{Name: dnswire.CanonicalName(name), Type: dnswire.TypeA, Class: dnswire.ClassIN}
}

func aEntry(name string, ttl uint32) Entry {
	return Entry{Records: []dnswire.RR{{
		Name: dnswire.CanonicalName(name), Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")},
	}}}
}

func negEntry(rcode dnswire.RCode, soaTTL, soaMin uint32) Entry {
	return Entry{
		RCode: rcode,
		Authority: []dnswire.RR{{
			Name: "cache.example.", Class: dnswire.ClassIN, TTL: soaTTL,
			Data: dnswire.SOARecord{MName: "ns.cache.example.", RName: "h.cache.example.", Minimum: soaMin},
		}},
	}
}

func TestPutGetHit(t *testing.T) {
	c, reg := countedCache(Policy{})
	c.Put(q("a.example"), aEntry("a.example", 300), _epoch)
	e, ok := c.Get(q("a.example"), _epoch.Add(10*time.Second))
	if !ok {
		t.Fatal("miss")
	}
	if e.Records[0].TTL != 290 {
		t.Errorf("decayed TTL = %d, want 290", e.Records[0].TTL)
	}
	if hits, misses := count(reg, "hits"), count(reg, "misses"); hits != 1 || misses != 0 {
		t.Errorf("hits = %d, misses = %d, want 1, 0", hits, misses)
	}
}

func TestGetMiss(t *testing.T) {
	c, reg := countedCache(Policy{})
	if _, ok := c.Get(q("missing.example"), _epoch); ok {
		t.Fatal("unexpected hit")
	}
	if got := count(reg, "misses"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

func TestExpiry(t *testing.T) {
	c, reg := countedCache(Policy{})
	c.Put(q("a.example"), aEntry("a.example", 60), _epoch)
	if _, ok := c.Get(q("a.example"), _epoch.Add(59*time.Second)); !ok {
		t.Error("fresh entry missed")
	}
	if _, ok := c.Get(q("a.example"), _epoch.Add(60*time.Second)); ok {
		t.Error("expired entry hit")
	}
	if got := count(reg, "expired"); got != 1 {
		t.Errorf("expired = %d", got)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after expiry", c.Len())
	}
}

func TestMinTTLClamp(t *testing.T) {
	// The paper's footnote: "TTL that is smaller than the minimum ... will
	// be adjusted by the cache."
	c := New("c1", Policy{MinTTL: 300 * time.Second})
	c.Put(q("a.example"), aEntry("a.example", 10), _epoch)
	e, ok := c.Get(q("a.example"), _epoch.Add(100*time.Second))
	if !ok {
		t.Fatal("entry should survive: min TTL raised it to 300s")
	}
	if e.Records[0].TTL != 200 {
		t.Errorf("TTL = %d, want 200 (300 clamped - 100 elapsed)", e.Records[0].TTL)
	}
}

func TestMaxTTLClamp(t *testing.T) {
	c := New("c1", Policy{MaxTTL: 60 * time.Second})
	c.Put(q("a.example"), aEntry("a.example", 86400), _epoch)
	if _, ok := c.Get(q("a.example"), _epoch.Add(61*time.Second)); ok {
		t.Error("entry outlived max TTL")
	}
}

func TestZeroTTLNotStored(t *testing.T) {
	c := New("c1", Policy{})
	c.Put(q("a.example"), aEntry("a.example", 0), _epoch)
	if c.Len() != 0 {
		t.Error("zero-TTL entry stored")
	}
}

func TestNegativeCachingUsesSOAMinimum(t *testing.T) {
	c := New("c1", Policy{})
	// SOA TTL 3600 but MINIMUM 60: RFC 2308 takes the min.
	c.Put(q("nx.example"), negEntry(dnswire.RCodeNXDomain, 3600, 60), _epoch)
	e, ok := c.Get(q("nx.example"), _epoch.Add(59*time.Second))
	if !ok {
		t.Fatal("negative entry missed while fresh")
	}
	if !e.Negative() || e.RCode != dnswire.RCodeNXDomain {
		t.Errorf("entry = %+v", e)
	}
	if _, ok := c.Get(q("nx.example"), _epoch.Add(60*time.Second)); ok {
		t.Error("negative entry outlived SOA minimum")
	}
}

// TestNegativeTTLPolicyCaps: the SOA minimum is the negative TTL, and the
// policy's max-TTL clamp caps it like any other TTL.
func TestNegativeTTLPolicyCaps(t *testing.T) {
	c := New("c1", Policy{MaxTTL: 5 * time.Second})
	c.Put(q("nx.example"), negEntry(dnswire.RCodeNXDomain, 3600, 3600), _epoch)
	if _, ok := c.Get(q("nx.example"), _epoch.Add(4*time.Second)); !ok {
		t.Error("negative entry missed while fresh")
	}
	if _, ok := c.Get(q("nx.example"), _epoch.Add(6*time.Second)); ok {
		t.Error("negative entry outlived the max-TTL policy")
	}
}

func TestLRUEviction(t *testing.T) {
	c, reg := countedCache(Policy{Capacity: 3})
	for i := 0; i < 3; i++ {
		c.Put(q(fmt.Sprintf("n%d.example", i)), aEntry("x.example", 300), _epoch)
	}
	// Touch n0 so n1 becomes the LRU victim.
	if _, ok := c.Get(q("n0.example"), _epoch); !ok {
		t.Fatal("n0 missing")
	}
	c.Put(q("n3.example"), aEntry("x.example", 300), _epoch)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, ok := c.Get(q("n1.example"), _epoch); ok {
		t.Error("LRU victim n1 still cached")
	}
	if _, ok := c.Get(q("n0.example"), _epoch); !ok {
		t.Error("recently used n0 evicted")
	}
	if got := count(reg, "evictions"); got != 1 {
		t.Errorf("evictions = %d", got)
	}
}

func TestPutReplaces(t *testing.T) {
	c := New("c1", Policy{})
	c.Put(q("a.example"), aEntry("a.example", 300), _epoch)
	c.Put(q("a.example"), aEntry("a.example", 999), _epoch)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	e, _ := c.Get(q("a.example"), _epoch)
	if e.Records[0].TTL != 999 {
		t.Errorf("TTL = %d, want replacement", e.Records[0].TTL)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c, reg := countedCache(Policy{})
	c.Put(q("a.example"), aEntry("a.example", 300), _epoch)
	if !c.Contains(q("a.example"), _epoch) {
		t.Error("Contains = false for cached entry")
	}
	if c.Contains(q("b.example"), _epoch) {
		t.Error("Contains = true for absent entry")
	}
	if c.Contains(q("a.example"), _epoch.Add(301*time.Second)) {
		t.Error("Contains = true for expired entry")
	}
	if hits, misses := count(reg, "hits"), count(reg, "misses"); hits != 0 || misses != 0 {
		t.Errorf("Contains perturbed counters: hits = %d, misses = %d", hits, misses)
	}
}

func TestGetReturnsCopies(t *testing.T) {
	c := New("c1", Policy{})
	c.Put(q("a.example"), aEntry("a.example", 300), _epoch)
	e, _ := c.Get(q("a.example"), _epoch)
	e.Records[0].TTL = 1
	e2, _ := c.Get(q("a.example"), _epoch)
	if e2.Records[0].TTL != 300 {
		t.Error("Get exposed mutable internal state")
	}
}

func TestPutDefensiveCopy(t *testing.T) {
	c := New("c1", Policy{})
	entry := aEntry("a.example", 300)
	c.Put(q("a.example"), entry, _epoch)
	entry.Records[0].TTL = 1
	e, _ := c.Get(q("a.example"), _epoch)
	if e.Records[0].TTL != 300 {
		t.Error("Put aliased caller's slice")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New("c1", Policy{Capacity: 64})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				name := fmt.Sprintf("n%d.example", (id*7+j)%100)
				c.Put(q(name), aEntry(name, 300), _epoch)
				c.Get(q(name), _epoch)
				c.Contains(q(name), _epoch)
			}
		}(i)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}

func TestPropertyCapacityNeverExceeded(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cap := 1 + r.Intn(20)
		c := New("c", Policy{Capacity: cap})
		now := _epoch
		for i := 0; i < 200; i++ {
			c.Put(q(fmt.Sprintf("n%d.example", r.Intn(50))), aEntry("x.example", uint32(1+r.Intn(1000))), now)
			if c.Len() > cap {
				return false
			}
			now = now.Add(time.Duration(r.Intn(5)) * time.Second)
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyTTLDecayMonotonic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New("c", Policy{})
		ttl := uint32(10 + r.Intn(1000))
		c.Put(q("a.example"), aEntry("a.example", ttl), _epoch)
		prev := ttl + 1
		for elapsed := 0; elapsed < int(ttl); elapsed += 1 + r.Intn(50) {
			e, ok := c.Get(q("a.example"), _epoch.Add(time.Duration(elapsed)*time.Second))
			if !ok {
				return false // must not expire before ttl
			}
			cur := e.Records[0].TTL
			if cur >= prev {
				return false // strictly decreasing across increasing elapsed
			}
			prev = cur
		}
		_, ok := c.Get(q("a.example"), _epoch.Add(time.Duration(ttl)*time.Second))
		return !ok
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyClampTTLWithinBounds(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(minS, maxS uint16, ttlS uint32) bool {
		p := Policy{MinTTL: time.Duration(minS) * time.Second, MaxTTL: time.Duration(maxS) * time.Second}
		got := p.ClampTTL(time.Duration(ttlS) * time.Second)
		if p.MaxTTL > 0 && got > p.MaxTTL && got > p.MinTTL {
			return false
		}
		if p.MinTTL > 0 && got < p.MinTTL {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkCachePutGet(b *testing.B) {
	c := New("bench", Policy{Capacity: 4096})
	entry := aEntry("bench.example", 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		question := q(fmt.Sprintf("n%d.example", i%1000))
		c.Put(question, entry, _epoch)
		if _, ok := c.Get(question, _epoch); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCacheGetHot(b *testing.B) {
	c := New("bench", Policy{})
	question := q("hot.example")
	c.Put(question, aEntry("hot.example", 300), _epoch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(question, _epoch); !ok {
			b.Fatal("miss")
		}
	}
}

// TestGetExpiresAtDecayedTTLZero is the regression test for the expiry-
// boundary bug: a fractional policy TTL (here MinTTL = 1500ms) gave the
// entry a fractional lifetime while the stored record TTLs truncate to
// whole seconds, so during the final partial second Get served records
// decayed to TTL 0 as fresh hits. The enforced semantics: an entry
// expires no later than the moment its decayed record TTL reaches 0.
func TestGetExpiresAtDecayedTTLZero(t *testing.T) {
	c, reg := countedCache(Policy{MinTTL: 1500 * time.Millisecond})
	c.Put(q("a.example"), aEntry("a.example", 1), _epoch)

	// Within the whole-second lifetime the record is served with TTL 1.
	e, ok := c.Get(q("a.example"), _epoch.Add(500*time.Millisecond))
	if !ok {
		t.Fatal("entry missing inside its lifetime")
	}
	if e.Records[0].TTL != 1 {
		t.Fatalf("TTL = %d, want 1 inside the lifetime", e.Records[0].TTL)
	}

	// At 1.2s the served TTL would have decayed to 0: must be expired,
	// not a fresh hit.
	if e, ok := c.Get(q("a.example"), _epoch.Add(1200*time.Millisecond)); ok {
		t.Fatalf("TTL-0 record served as a fresh hit: %+v", e.Records)
	}
	if got := count(reg, "expired"); got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
}

// TestPutDropsSubSecondLifetime: a policy that clamps the lifetime below
// one second (MaxTTL = 500ms) would serve TTL-0 records for its whole
// lifetime; such entries are not stored at all (DNS TTLs are whole
// seconds, RFC 1035 §3.2.1).
func TestPutDropsSubSecondLifetime(t *testing.T) {
	c := New("c1", Policy{MaxTTL: 500 * time.Millisecond})
	c.Put(q("a.example"), aEntry("a.example", 300), _epoch)
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0 (sub-second lifetime must not be cached)", c.Len())
	}
}

// TestGetClockSkewDoesNotServeZeroTTL: a lookup timestamped before the
// store (virtual-clock rewind or skew) must not wrap the elapsed seconds
// into a huge unsigned value that zeroes every served TTL.
func TestGetClockSkewDoesNotServeZeroTTL(t *testing.T) {
	c := New("c1", Policy{})
	c.Put(q("a.example"), aEntry("a.example", 60), _epoch)
	e, ok := c.Get(q("a.example"), _epoch.Add(-2*time.Second))
	if !ok {
		t.Fatal("entry missing")
	}
	if e.Records[0].TTL != 60 {
		t.Fatalf("TTL = %d, want undecayed 60 when now precedes stored", e.Records[0].TTL)
	}
}

func TestSetMetricsCountsEvents(t *testing.T) {
	reg := metrics.New()
	c := New("p/cache-0", Policy{Capacity: 1})
	c.SetMetrics(reg)
	c.Put(q("a.example"), aEntry("a.example", 60), _epoch)
	c.Get(q("a.example"), _epoch)                     // hit
	c.Get(q("b.example"), _epoch)                     // miss
	c.Get(q("a.example"), _epoch.Add(61*time.Second)) // expired (+miss)
	c.Put(q("c.example"), aEntry("c.example", 60), _epoch)
	c.Put(q("d.example"), aEntry("d.example", 60), _epoch) // evicts c
	s := reg.Snapshot()
	for name, want := range map[string]int64{
		"dnscache.hits.p/cache-0":      1,
		"dnscache.misses.p/cache-0":    2,
		"dnscache.expired.p/cache-0":   1,
		"dnscache.evictions.p/cache-0": 1,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
