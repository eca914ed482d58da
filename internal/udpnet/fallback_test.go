package udpnet

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
)

var (
	fbClient = netip.MustParseAddr("192.0.2.77")
	fbServer = netip.MustParseAddr("198.51.100.99")
)

// answeringHandler returns an authoritative A answer for every query.
func answeringHandler(addr netip.Addr) netsim.HandlerFunc {
	return func(_ context.Context, _ netip.Addr, query *dnswire.Message) (*dnswire.Message, error) {
		resp := dnswire.NewResponse(query)
		resp.Header.Authoritative = true
		q, err := query.FirstQuestion()
		if err != nil {
			return nil, err
		}
		resp.Answer = append(resp.Answer, dnswire.RR{
			Name:  q.Name,
			Class: dnswire.ClassIN,
			TTL:   60,
			Data:  dnswire.ARecord{Addr: addr},
		})
		return resp, nil
	}
}

// TestTCPFallbackSimulatedTruncation is the end-to-end satellite test: a
// simulated link that truncates every UDP response must trigger the
// fallback wrapper's TCP retry and yield the full, untruncated answer —
// the same decision logic Transport runs over real sockets.
func TestTCPFallbackSimulatedTruncation(t *testing.T) {
	n := netsim.New(2017)
	reg := metrics.New()
	n.SetMetrics(reg)
	answer := netip.MustParseAddr("203.0.113.55")
	n.Register(fbServer, netsim.LinkProfile{
		Faults: &netsim.FaultProfile{TruncateRate: 1},
	}, answeringHandler(answer))
	conn := n.Bind(fbClient)

	// Without the wrapper the client is stuck with the TC stub.
	query := dnswire.NewQuery(41, "stub.cde.example", dnswire.TypeA)
	stub, _, err := conn.Exchange(context.Background(), query, fbServer)
	if err != nil {
		t.Fatal(err)
	}
	if !stub.Header.Truncated || len(stub.Answer) != 0 {
		t.Fatalf("precondition: UDP leg should return an empty TC stub, got TC=%v answers=%d", stub.Header.Truncated, len(stub.Answer))
	}

	f := &TCPFallback{UDP: conn, TCP: conn.TCP()}
	query = dnswire.NewQuery(42, "full.cde.example", dnswire.TypeA)
	full, rtt, err := f.Exchange(context.Background(), query, fbServer)
	if err != nil {
		t.Fatal(err)
	}
	if full.Header.Truncated {
		t.Error("fallback answer still has TC set")
	}
	if len(full.Answer) != 1 {
		t.Fatalf("fallback answer has %d records, want 1", len(full.Answer))
	}
	if a, ok := full.Answer[0].Data.(dnswire.ARecord); !ok || a.Addr != answer {
		t.Errorf("fallback answer = %+v, want A %v", full.Answer[0].Data, answer)
	}
	if rtt < 0 {
		t.Errorf("combined rtt = %v, want >= 0 (both legs accounted)", rtt)
	}
	if got := reg.Snapshot().Counter("netsim.faults.truncated"); got < 2 {
		t.Errorf("truncation fault count = %d, want >= 2 (stub probe + fallback's UDP leg)", got)
	}
}

// TestTCPFallbackPassThrough: a clean (untruncated) response must come
// back from the UDP leg untouched, with no TCP exchange at all.
func TestTCPFallbackPassThrough(t *testing.T) {
	n := netsim.New(7)
	n.Register(fbServer, netsim.LinkProfile{}, answeringHandler(netip.MustParseAddr("203.0.113.56")))
	conn := n.Bind(fbClient)

	tcpCalls := 0
	f := &TCPFallback{
		UDP: conn,
		TCP: ExchangerFunc(func(context.Context, *dnswire.Message, netip.Addr) (*dnswire.Message, time.Duration, error) {
			tcpCalls++
			return nil, 0, errors.New("tcp leg must not run for clean responses")
		}),
	}
	resp, _, err := f.Exchange(context.Background(), dnswire.NewQuery(1, "clean.cde.example", dnswire.TypeA), fbServer)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 1 || resp.Header.Truncated {
		t.Errorf("clean response mangled: TC=%v answers=%d", resp.Header.Truncated, len(resp.Answer))
	}
	if tcpCalls != 0 {
		t.Errorf("TCP leg ran %d times on a clean path, want 0", tcpCalls)
	}
}

// TestTCPFallbackNilTCPReturnsStub: with no TCP leg configured the
// truncated response is handed back as-is, matching Transport with
// FallbackTCP unset.
func TestTCPFallbackNilTCPReturnsStub(t *testing.T) {
	n := netsim.New(7)
	n.Register(fbServer, netsim.LinkProfile{
		Faults: &netsim.FaultProfile{TruncateRate: 1},
	}, answeringHandler(netip.MustParseAddr("203.0.113.57")))
	f := &TCPFallback{UDP: n.Bind(fbClient)}
	resp, _, err := f.Exchange(context.Background(), dnswire.NewQuery(9, "stub2.cde.example", dnswire.TypeA), fbServer)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated {
		t.Error("nil TCP leg should surface the TC stub unchanged")
	}
}

// TestTCPFallbackUDPErrorPropagates: a lost UDP leg surfaces its error
// without attempting TCP (the TC bit was never observed).
func TestTCPFallbackUDPErrorPropagates(t *testing.T) {
	n := netsim.New(7)
	n.Register(fbServer, netsim.LinkProfile{Loss: 1}, answeringHandler(netip.MustParseAddr("203.0.113.58")))
	conn := n.Bind(fbClient)
	f := &TCPFallback{UDP: conn, TCP: conn.TCP()}
	_, _, err := f.Exchange(context.Background(), dnswire.NewQuery(3, "lost.cde.example", dnswire.TypeA), fbServer)
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout from the UDP leg", err)
	}
}
