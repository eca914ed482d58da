package authns

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnscde/internal/clock"
	"dnscde/internal/dnswire"
	"dnscde/internal/netsim"
	"dnscde/internal/zone"
)

var (
	parentNS = netip.MustParseAddr("198.51.100.1")
	childNS  = netip.MustParseAddr("198.51.100.2")
	target   = netip.MustParseAddr("192.0.2.80")
	egressIP = netip.MustParseAddr("203.0.113.7")
)

func hierarchyServer(t *testing.T) (*Server, *zone.Hierarchy) {
	t.Helper()
	h, err := zone.BuildHierarchy("cache.example", 10, target, parentNS, childNS, 300)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer([]*zone.Zone{h.Parent, h.Child}, WithClock(clock.NewVirtual())), h
}

func ask(t *testing.T, s *Server, src netip.Addr, name string, typ dnswire.Type) *dnswire.Message {
	t.Helper()
	resp, err := s.ServeDNS(context.Background(), src, dnswire.NewQuery(1, name, typ))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServeAnswer(t *testing.T) {
	s, _ := hierarchyServer(t)
	resp := ask(t, s, egressIP, "x-1.sub.cache.example.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative {
		t.Fatalf("resp = %s", resp.Summary())
	}
	if len(resp.Answer) != 1 {
		t.Fatalf("answers = %d", len(resp.Answer))
	}
	if a := resp.Answer[0].Data.(dnswire.ARecord); a.Addr != target {
		t.Errorf("addr = %v", a.Addr)
	}
}

func TestServePicksMostSpecificZone(t *testing.T) {
	s, _ := hierarchyServer(t)
	// The child zone must answer, not the parent's delegation, because
	// this server is authoritative for both.
	resp := ask(t, s, egressIP, "x-2.sub.cache.example.", dnswire.TypeA)
	if len(resp.Answer) != 1 {
		t.Errorf("want answer from child zone, got %s", resp.Summary())
	}
}

func TestServeDelegationFromParentOnly(t *testing.T) {
	h, err := zone.BuildHierarchy("cache.example", 5, target, parentNS, childNS, 300)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer([]*zone.Zone{h.Parent}) // parent only
	resp := ask(t, s, egressIP, "x-1.sub.cache.example.", dnswire.TypeA)
	if resp.Header.Authoritative {
		t.Error("referral must not be authoritative")
	}
	if len(resp.Answer) != 0 || len(resp.Authority) != 1 || resp.Authority[0].Type() != dnswire.TypeNS {
		t.Fatalf("resp = %s", resp.Summary())
	}
	if len(resp.Additional) != 1 {
		t.Errorf("glue = %v", resp.Additional)
	}
}

func TestServeNXDomainAndNoData(t *testing.T) {
	s, _ := hierarchyServer(t)
	resp := ask(t, s, egressIP, "nope.cache.example.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type() != dnswire.TypeSOA {
		t.Errorf("authority = %v", resp.Authority)
	}
	resp = ask(t, s, egressIP, "x-1.sub.cache.example.", dnswire.TypeTXT)
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answer) != 0 {
		t.Errorf("NODATA resp = %s", resp.Summary())
	}
}

func TestServeRefusedOutOfAuthority(t *testing.T) {
	s, _ := hierarchyServer(t)
	resp := ask(t, s, egressIP, "www.unrelated.example.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestServeCNAMEChaseWithinZone(t *testing.T) {
	z, err := zone.BuildCNAMEChain("cache.example", 5, target, parentNS, 300)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer([]*zone.Zone{z})
	resp := ask(t, s, egressIP, "x-3.cache.example.", dnswire.TypeA)
	if len(resp.Answer) != 2 {
		t.Fatalf("answers = %v", resp.Answer)
	}
	if resp.Answer[0].Type() != dnswire.TypeCNAME || resp.Answer[1].Type() != dnswire.TypeA {
		t.Errorf("answer types = %v, %v", resp.Answer[0].Type(), resp.Answer[1].Type())
	}
}

func TestServeCNAMELoopBounded(t *testing.T) {
	z := zone.New("cache.example")
	if err := zone.Apex(z, "ns.cache.example.", parentNS, 300); err != nil {
		t.Fatal(err)
	}
	z.MustAdd(dnswire.RR{Name: "a.cache.example.", Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.CNAMERecord{Target: "b.cache.example."}})
	z.MustAdd(dnswire.RR{Name: "b.cache.example.", Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.CNAMERecord{Target: "a.cache.example."}})
	s := NewServer([]*zone.Zone{z})
	// A CNAME loop terminates with the partial chain, like production
	// servers; the resolver's own chase limit handles the rest.
	resp := ask(t, s, egressIP, "a.cache.example.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v, want NOERROR with partial chain", resp.Header.RCode)
	}
	if len(resp.Answer) != 2 {
		t.Errorf("answers = %d, want the two loop links exactly once each", len(resp.Answer))
	}
}

func TestServeFormErrOnNoQuestion(t *testing.T) {
	s, _ := hierarchyServer(t)
	resp, err := s.ServeDNS(context.Background(), egressIP, &dnswire.Message{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestServeNotImpOnWeirdOpcode(t *testing.T) {
	s, _ := hierarchyServer(t)
	q := dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA)
	q.Header.Opcode = dnswire.OpcodeUpdate
	resp, err := s.ServeDNS(context.Background(), egressIP, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNotImp {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestQueryLogCounting(t *testing.T) {
	s, _ := hierarchyServer(t)
	srcs := []netip.Addr{
		netip.MustParseAddr("203.0.113.1"),
		netip.MustParseAddr("203.0.113.2"),
		netip.MustParseAddr("203.0.113.1"),
	}
	for i, src := range srcs {
		_ = ask(t, s, src, "x-1.sub.cache.example.", dnswire.TypeA)
		_ = i
	}
	_ = ask(t, s, srcs[0], "x-2.sub.cache.example.", dnswire.TypeTXT)

	log := s.Log()
	if log.Len() != 4 {
		t.Errorf("Len = %d", log.Len())
	}
	if got := log.CountName("x-1.sub.cache.example."); got != 3 {
		t.Errorf("CountName = %d, want 3", got)
	}
	if got := log.CountSuffix("sub.cache.example."); got != 4 {
		t.Errorf("CountSuffix = %d, want 4", got)
	}
	if got := log.DistinctSources(""); len(got) != 2 {
		t.Errorf("DistinctSources = %v", got)
	}
	byType := log.CountByType("sub.cache.example.")
	if byType[dnswire.TypeA] != 3 || byType[dnswire.TypeTXT] != 1 {
		t.Errorf("CountByType = %v", byType)
	}
	log.Reset()
	if log.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestQueryLogEntriesAreCopies(t *testing.T) {
	var l QueryLog
	l.Append(LogEntry{Src: egressIP})
	es := l.Entries()
	es[0].Src = netip.MustParseAddr("192.0.2.99")
	if l.Entries()[0].Src != egressIP {
		t.Error("Entries exposed internal slice")
	}
}

func TestQueryLogConcurrent(t *testing.T) {
	var l QueryLog
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Append(LogEntry{Q: dnswire.Question{Name: "x.example."}})
				_ = l.CountName("x.example.")
			}
		}()
	}
	wg.Wait()
	if l.Len() != 3200 {
		t.Errorf("Len = %d", l.Len())
	}
}

// TestServeDNSEventAnswersAtDelivery: on the simulated network the
// server answers inline, so a round trip costs the link delays alone.
func TestServeDNSEventAnswersAtDelivery(t *testing.T) {
	h, err := zone.BuildHierarchy("cache.example", 3, target, parentNS, childNS, 300)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer([]*zone.Zone{h.Parent, h.Child})
	n := netsim.New(1)
	n.Register(parentNS, netsim.LinkProfile{OneWay: 4 * time.Millisecond}, s)
	_, rtt, err := n.Bind(egressIP).Exchange(context.Background(), dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), parentNS)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 8*time.Millisecond {
		t.Errorf("rtt = %v, want 8ms of link delay", rtt)
	}
}

func TestLogTimestampsUseClock(t *testing.T) {
	vc := clock.NewVirtual()
	h, err := zone.BuildHierarchy("cache.example", 3, target, parentNS, childNS, 300)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer([]*zone.Zone{h.Parent}, WithClock(vc))
	_ = ask(t, s, egressIP, "cache.example.", dnswire.TypeSOA)
	vc.Advance(time.Hour)
	_ = ask(t, s, egressIP, "cache.example.", dnswire.TypeSOA)
	es := s.Log().Entries()
	if d := es[1].Time.Sub(es[0].Time); d != time.Hour {
		t.Errorf("timestamp delta = %v, want 1h", d)
	}
}

func TestAddZone(t *testing.T) {
	s := NewServer(nil)
	resp := ask(t, s, egressIP, "a.cache.example.", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %v before AddZone", resp.Header.RCode)
	}
	z, err := zone.BuildFlat("cache.example", "a", target, parentNS, 300)
	if err != nil {
		t.Fatal(err)
	}
	s.AddZone(z)
	resp = ask(t, s, egressIP, "a.cache.example.", dnswire.TypeA)
	if len(resp.Answer) != 1 {
		t.Errorf("resp = %s", resp.Summary())
	}
}

func TestCountNameTypeAndMaxType(t *testing.T) {
	var l QueryLog
	add := func(name string, typ dnswire.Type) {
		l.Append(LogEntry{Q: dnswire.Question{Name: dnswire.CanonicalName(name), Type: typ, Class: dnswire.ClassIN}})
	}
	add("t.cache.example", dnswire.TypeTXT)
	add("t.cache.example", dnswire.TypeTXT)
	add("t.cache.example", dnswire.TypeTXT)
	add("t.cache.example", dnswire.TypeMX)
	add("other.cache.example", dnswire.TypeTXT)

	if got := l.CountNameType("T.Cache.Example", dnswire.TypeTXT); got != 3 {
		t.Errorf("CountNameType TXT = %d, want 3", got)
	}
	if got := l.CountNameType("t.cache.example", dnswire.TypeMX); got != 1 {
		t.Errorf("CountNameType MX = %d, want 1", got)
	}
	if got := l.CountNameType("t.cache.example", dnswire.TypeA); got != 0 {
		t.Errorf("CountNameType A = %d, want 0", got)
	}
	if got := l.CountNameMaxType("t.cache.example"); got != 3 {
		t.Errorf("CountNameMaxType = %d, want 3 (the TXT group)", got)
	}
	if got := l.CountNameMaxType("missing.cache.example"); got != 0 {
		t.Errorf("CountNameMaxType missing = %d", got)
	}
}

func TestEDNSShare(t *testing.T) {
	var l QueryLog
	l.Append(LogEntry{Q: dnswire.Question{Name: "a.cache.example.", Type: dnswire.TypeA}, EDNS: true, UDPSize: 4096})
	l.Append(LogEntry{Q: dnswire.Question{Name: "b.cache.example.", Type: dnswire.TypeA}})
	l.Append(LogEntry{Q: dnswire.Question{Name: "c.other.example.", Type: dnswire.TypeA}, EDNS: true})

	if got := l.EDNSShare(""); got < 0.66 || got > 0.67 {
		t.Errorf("EDNSShare(all) = %v, want 2/3", got)
	}
	if got := l.EDNSShare("cache.example."); got != 0.5 {
		t.Errorf("EDNSShare(cache.example) = %v, want 0.5", got)
	}
	if got := l.EDNSShare("unseen.example."); got != 0 {
		t.Errorf("EDNSShare(unseen) = %v", got)
	}
}
