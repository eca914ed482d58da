package loadbal

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"

	"dnscde/internal/dnswire"
)

func qn(name string) dnswire.Question {
	return dnswire.Question{Name: dnswire.CanonicalName(name), Type: dnswire.TypeA, Class: dnswire.ClassIN}
}

var clientA = netip.MustParseAddr("192.0.2.1")

func TestRoundRobinCycles(t *testing.T) {
	s := NewRoundRobin()
	const n = 4
	for round := 0; round < 3; round++ {
		for want := 0; want < n; want++ {
			if got := s.Select(qn("a.example"), clientA, n); got != want {
				t.Fatalf("round %d: got %d, want %d", round, got, want)
			}
		}
	}
}

func TestRoundRobinCoversAllCachesInNQueries(t *testing.T) {
	// The §V-B claim: with round robin, q = n suffices.
	s := NewRoundRobin()
	const n = 7
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		seen[s.Select(qn("a.example"), clientA, n)] = true
	}
	if len(seen) != n {
		t.Errorf("covered %d caches in %d queries, want all", len(seen), n)
	}
}

func TestRoundRobinHandlesNChange(t *testing.T) {
	s := NewRoundRobin()
	for i := 0; i < 10; i++ {
		if got := s.Select(qn("a"), clientA, 5); got < 0 || got >= 5 {
			t.Fatalf("out of range: %d", got)
		}
	}
	// Shrinking n must not index out of range.
	for i := 0; i < 10; i++ {
		if got := s.Select(qn("a"), clientA, 2); got < 0 || got >= 2 {
			t.Fatalf("out of range after shrink: %d", got)
		}
	}
}

func TestRandomIsRoughlyUniform(t *testing.T) {
	s := NewRandom(42)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Select(qn("a.example"), clientA, n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("cache %d selected %d times, want ≈%.0f", i, c, want)
		}
	}
}

func TestHashQNameDeterministicPerName(t *testing.T) {
	s := HashQName{}
	const n = 8
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("x-%d.cache.example", i)
		first := s.Select(qn(name), clientA, n)
		for j := 0; j < 5; j++ {
			if got := s.Select(qn(name), clientA, n); got != first {
				t.Fatalf("%s: selection changed %d -> %d", name, first, got)
			}
		}
	}
}

func TestHashQNameSpreadsNames(t *testing.T) {
	s := HashQName{}
	const n = 4
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		seen[s.Select(qn(fmt.Sprintf("x-%d.cache.example", i)), clientA, n)] = true
	}
	if len(seen) != n {
		t.Errorf("100 distinct names covered only %d/%d caches", len(seen), n)
	}
}

func TestHashQNameCaseInsensitive(t *testing.T) {
	s := HashQName{}
	if s.Select(qn("Name.Cache.Example"), clientA, 16) != s.Select(qn("name.cache.example."), clientA, 16) {
		t.Error("case variants hash differently")
	}
}

func TestHashSourceIPDeterministicPerClient(t *testing.T) {
	s := HashSourceIP{}
	const n = 8
	srcs := []netip.Addr{
		netip.MustParseAddr("192.0.2.1"),
		netip.MustParseAddr("192.0.2.2"),
		netip.MustParseAddr("203.0.113.77"),
	}
	for _, src := range srcs {
		first := s.Select(qn("a.example"), src, n)
		if got := s.Select(qn("totally-different.example"), src, n); got != first {
			t.Errorf("%v: qname influenced source-hash selection", src)
		}
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q) built %q", name, s.Name())
		}
	}
	if _, err := New("weighted-random", 1); err == nil {
		t.Error("unknown selector accepted")
	}
}

func TestCategories(t *testing.T) {
	tests := []struct {
		s    Selector
		want Category
	}{
		{NewRoundRobin(), TrafficDependent},
		{NewRandom(1), Unpredictable},
		{HashQName{}, KeyDependent},
		{HashSourceIP{}, KeyDependent},
	}
	for _, tt := range tests {
		if got := tt.s.Category(); got != tt.want {
			t.Errorf("%s: category = %v, want %v", tt.s.Name(), got, tt.want)
		}
		if tt.s.Name() == "" {
			t.Errorf("%T has empty name", tt.s)
		}
	}
	if TrafficDependent.String() != "traffic-dependent" || Category(9).String() != "category9" {
		t.Error("category strings")
	}
}

func TestPropertySelectionsInRange(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	selectors := func(seed int64) []Selector {
		return []Selector{NewRoundRobin(), NewRandom(seed), HashQName{}, HashSourceIP{}}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		src := netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
		for _, s := range selectors(seed) {
			for i := 0; i < 20; i++ {
				got := s.Select(qn(fmt.Sprintf("n%d.example", r.Intn(100))), src, n)
				if got < 0 || got >= n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConcurrentSelectors(t *testing.T) {
	for _, s := range []Selector{NewRoundRobin(), NewRandom(3)} {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 500; j++ {
					if got := s.Select(qn("a.example"), clientA, 4); got < 0 || got >= 4 {
						t.Errorf("%s: out of range %d", s.Name(), got)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func BenchmarkSelectors(b *testing.B) {
	question := qn("bench.example")
	for _, s := range []Selector{NewRoundRobin(), NewRandom(1), HashQName{}, HashSourceIP{}} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.Select(question, clientA, 4); got < 0 || got >= 4 {
					b.Fatal(got)
				}
			}
		})
	}
}
