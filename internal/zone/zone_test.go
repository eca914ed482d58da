package zone

import (
	"errors"
	"net/netip"
	"testing"

	"dnscde/internal/dnswire"
)

var (
	nsAddr  = netip.MustParseAddr("198.51.100.1")
	nsAddr2 = netip.MustParseAddr("198.51.100.2")
	target  = netip.MustParseAddr("192.0.2.80")
)

// testZone builds the paper's cache.example zone with a delegation.
func testZone(t *testing.T) *Zone {
	t.Helper()
	z := New("cache.example")
	if err := Apex(z, "ns.cache.example.", nsAddr, 3600); err != nil {
		t.Fatal(err)
	}
	z.MustAdd(dnswire.RR{Name: "name.cache.example.", Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.ARecord{Addr: target}})
	z.MustAdd(dnswire.RR{Name: "alias.cache.example.", Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.CNAMERecord{Target: "name.cache.example."}})
	z.MustAdd(dnswire.RR{Name: "sub.cache.example.", Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NSRecord{Host: "ns.sub.cache.example."}})
	z.MustAdd(dnswire.RR{Name: "ns.sub.cache.example.", Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.ARecord{Addr: nsAddr2}})
	z.MustAdd(dnswire.RR{Name: "*.wild.cache.example.", Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.TXTRecord{Strings: []string{"wildcard"}}})
	z.MustAdd(dnswire.RR{Name: "mail.cache.example.", Class: dnswire.ClassIN, TTL: 600,
		Data: dnswire.MXRecord{Preference: 10, Host: "mx.cache.example."}})
	return z
}

func TestLookupAnswer(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("name.cache.example.", dnswire.TypeA)
	if res.Kind != Answer {
		t.Fatalf("kind = %v, want ANSWER", res.Kind)
	}
	if len(res.Records) != 1 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if a, ok := res.Records[0].Data.(dnswire.ARecord); !ok || a.Addr != target {
		t.Errorf("record = %v", res.Records[0])
	}
}

func TestLookupIsCaseInsensitive(t *testing.T) {
	z := testZone(t)
	if res := z.Lookup("NAME.Cache.Example", dnswire.TypeA); res.Kind != Answer {
		t.Errorf("kind = %v, want ANSWER", res.Kind)
	}
}

func TestLookupCNAME(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("alias.cache.example.", dnswire.TypeA)
	if res.Kind != CNAMEAnswer {
		t.Fatalf("kind = %v, want CNAME", res.Kind)
	}
	if res.Target != "name.cache.example." {
		t.Errorf("target = %q", res.Target)
	}
	// Asking for the CNAME itself returns it as a plain answer.
	if res := z.Lookup("alias.cache.example.", dnswire.TypeCNAME); res.Kind != Answer {
		t.Errorf("CNAME qtype: kind = %v, want ANSWER", res.Kind)
	}
}

func TestLookupDelegation(t *testing.T) {
	z := testZone(t)
	for _, name := range []string{
		"sub.cache.example.",
		"x-1.sub.cache.example.",
		"deep.deeper.sub.cache.example.",
		"ns.sub.cache.example.", // glue is below the cut
	} {
		res := z.Lookup(name, dnswire.TypeA)
		if res.Kind != Delegation {
			t.Errorf("Lookup(%q) kind = %v, want DELEGATION", name, res.Kind)
			continue
		}
		if len(res.Records) != 1 || res.Records[0].Type() != dnswire.TypeNS {
			t.Errorf("Lookup(%q) records = %v", name, res.Records)
		}
		if len(res.Glue) != 1 {
			t.Errorf("Lookup(%q) glue = %v, want the ns.sub A record", name, res.Glue)
		}
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("missing.cache.example.", dnswire.TypeA)
	if res.Kind != NXDomain {
		t.Fatalf("kind = %v, want NXDOMAIN", res.Kind)
	}
	if len(res.Authority) != 1 || res.Authority[0].Type() != dnswire.TypeSOA {
		t.Errorf("authority = %v, want SOA", res.Authority)
	}
}

func TestLookupNoData(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("name.cache.example.", dnswire.TypeTXT)
	if res.Kind != NoData {
		t.Fatalf("kind = %v, want NODATA", res.Kind)
	}
	if len(res.Authority) != 1 {
		t.Errorf("authority = %v, want SOA for negative caching", res.Authority)
	}
}

func TestLookupEmptyNonTerminal(t *testing.T) {
	z := testZone(t)
	// "wild.cache.example." does not exist itself but "*.wild..." is below.
	res := z.Lookup("wild.cache.example.", dnswire.TypeA)
	if res.Kind != NoData {
		t.Errorf("empty non-terminal kind = %v, want NODATA", res.Kind)
	}
}

func TestLookupWildcard(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("anything.wild.cache.example.", dnswire.TypeTXT)
	if res.Kind != Answer {
		t.Fatalf("kind = %v, want ANSWER via wildcard", res.Kind)
	}
	if res.Records[0].Name != "anything.wild.cache.example." {
		t.Errorf("owner = %q, want the queried name", res.Records[0].Name)
	}
}

func TestLookupOutOfZone(t *testing.T) {
	z := testZone(t)
	if res := z.Lookup("www.other.example.", dnswire.TypeA); res.Kind != OutOfZone {
		t.Errorf("kind = %v, want OUTOFZONE", res.Kind)
	}
}

func TestLookupANY(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("cache.example.", dnswire.TypeANY)
	if res.Kind != Answer {
		t.Fatalf("kind = %v", res.Kind)
	}
	// Apex has SOA + NS.
	if len(res.Records) < 2 {
		t.Errorf("ANY returned %d records, want >= 2", len(res.Records))
	}
}

func TestAddRejectsOutOfZone(t *testing.T) {
	z := New("cache.example")
	err := z.Add(dnswire.RR{Name: "www.other.example.", Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.ARecord{Addr: target}})
	if !errors.Is(err, ErrOutOfZone) {
		t.Errorf("err = %v, want ErrOutOfZone", err)
	}
}

func TestAddRejectsCNAMEConflict(t *testing.T) {
	z := New("cache.example")
	z.MustAdd(dnswire.RR{Name: "a.cache.example.", Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.ARecord{Addr: target}})
	err := z.Add(dnswire.RR{Name: "a.cache.example.", Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.CNAMERecord{Target: "b.cache.example."}})
	if !errors.Is(err, ErrCNAMEConflict) {
		t.Errorf("CNAME over A: err = %v, want ErrCNAMEConflict", err)
	}
	z2 := New("cache.example")
	z2.MustAdd(dnswire.RR{Name: "a.cache.example.", Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.CNAMERecord{Target: "b.cache.example."}})
	err = z2.Add(dnswire.RR{Name: "a.cache.example.", Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.ARecord{Addr: target}})
	if !errors.Is(err, ErrCNAMEConflict) {
		t.Errorf("A over CNAME: err = %v, want ErrCNAMEConflict", err)
	}
}

func TestValidate(t *testing.T) {
	z := testZone(t)
	if err := z.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	empty := New("cache.example")
	if err := empty.Validate(); !errors.Is(err, ErrNoSOA) {
		t.Errorf("empty zone: err = %v, want ErrNoSOA", err)
	}
}

func TestLenAndNames(t *testing.T) {
	z := New("cache.example")
	if z.Len() != 0 {
		t.Error("empty zone Len != 0")
	}
	if err := Apex(z, "ns.cache.example.", nsAddr, 3600); err != nil {
		t.Fatal(err)
	}
	if z.Len() != 3 { // SOA + NS + glue A
		t.Errorf("Len = %d, want 3", z.Len())
	}
	names := z.Names()
	if len(names) != 2 {
		t.Errorf("Names = %v", names)
	}
}

func TestBuildFlat(t *testing.T) {
	z, err := BuildFlat("cache.example", "name", target, nsAddr, 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Validate(); err != nil {
		t.Fatal(err)
	}
	res := z.Lookup("name.cache.example.", dnswire.TypeA)
	if res.Kind != Answer {
		t.Errorf("kind = %v", res.Kind)
	}
}

func TestBuildCNAMEChain(t *testing.T) {
	const q = 25
	z, err := BuildCNAMEChain("cache.example", q, target, nsAddr, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= q; i++ {
		res := z.Lookup(ProbeName(i, "cache.example"), dnswire.TypeA)
		if res.Kind != CNAMEAnswer {
			t.Fatalf("probe %d: kind = %v, want CNAME", i, res.Kind)
		}
		if res.Target != "name.cache.example." {
			t.Fatalf("probe %d: target = %q", i, res.Target)
		}
	}
	if _, err := BuildCNAMEChain("cache.example", 0, target, nsAddr, 300); err == nil {
		t.Error("q=0 accepted")
	}
}

func TestBuildHierarchy(t *testing.T) {
	const q = 10
	h, err := BuildHierarchy("cache.example", q, target, nsAddr, nsAddr2, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Parent must refer queries for the child's names.
	res := h.Parent.Lookup("x-3.sub.cache.example.", dnswire.TypeA)
	if res.Kind != Delegation {
		t.Fatalf("parent kind = %v, want DELEGATION", res.Kind)
	}
	if len(res.Glue) == 0 {
		t.Error("no glue in referral")
	}
	// Child must answer them.
	res = h.Child.Lookup("x-3.sub.cache.example.", dnswire.TypeA)
	if res.Kind != Answer {
		t.Fatalf("child kind = %v, want ANSWER", res.Kind)
	}
	if a := res.Records[0].Data.(dnswire.ARecord); a.Addr != target {
		t.Errorf("child answer = %v", a.Addr)
	}
	if h.ChildOrigin != "sub.cache.example." {
		t.Errorf("ChildOrigin = %q", h.ChildOrigin)
	}
	if _, err := BuildHierarchy("cache.example", 0, target, nsAddr, nsAddr2, 300); err == nil {
		t.Error("q=0 accepted")
	}
}

func TestProbeName(t *testing.T) {
	if got := ProbeName(7, "cache.example"); got != "x-7.cache.example." {
		t.Errorf("ProbeName = %q", got)
	}
}

func BenchmarkLookupExact(b *testing.B) {
	z, err := BuildCNAMEChain("cache.example", 100, target, nsAddr, 300)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := z.Lookup(ProbeName(1+i%100, "cache.example"), dnswire.TypeA)
		if res.Kind != CNAMEAnswer {
			b.Fatal(res.Kind)
		}
	}
}

func BenchmarkLookupDelegation(b *testing.B) {
	h, err := BuildHierarchy("cache.example", 10, target, nsAddr, nsAddr2, 300)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.Parent.Lookup("x-1.sub.cache.example.", dnswire.TypeA)
		if res.Kind != Delegation {
			b.Fatal(res.Kind)
		}
	}
}

func BenchmarkParseZone(b *testing.B) {
	h, err := BuildHierarchy("cache.example", 50, target, nsAddr, nsAddr2, 300)
	if err != nil {
		b.Fatal(err)
	}
	text := h.Child.Format()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(text, ""); err != nil {
			b.Fatal(err)
		}
	}
}
