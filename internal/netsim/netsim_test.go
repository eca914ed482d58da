package netsim

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim/des"
)

var (
	testClient = MustAddr("192.0.2.10")
	testServer = MustAddr("198.51.100.53")
)

// echoHandler answers every query with an authoritative NOERROR response.
func echoHandler() HandlerFunc {
	return HandlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		resp := dnswire.NewResponse(q)
		resp.Header.Authoritative = true
		return resp, nil
	})
}

func TestExchangeDelivers(t *testing.T) {
	n := New(1)
	n.Register(testServer, LinkProfile{OneWay: 5 * time.Millisecond}, echoHandler())
	conn := n.Bind(testClient)
	resp, rtt, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Response || !resp.Header.Authoritative {
		t.Error("response flags wrong")
	}
	if rtt != 10*time.Millisecond {
		t.Errorf("rtt = %v, want 10ms (5ms each way, no jitter)", rtt)
	}
}

func TestExchangeNoRoute(t *testing.T) {
	n := New(1)
	conn := n.Bind(testClient)
	_, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestExchangeCancelledContext(t *testing.T) {
	n := New(1)
	n.Register(testServer, LinkProfile{}, echoHandler())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := n.Bind(testClient).Exchange(ctx, dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestExchangeSourceProfileLatency(t *testing.T) {
	n := New(1)
	n.Register(testServer, LinkProfile{OneWay: 5 * time.Millisecond}, echoHandler())
	// Register the client too, so its link latency is charged.
	n.Register(testClient, LinkProfile{OneWay: 20 * time.Millisecond}, echoHandler())
	_, rtt, err := n.Bind(testClient).Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 50*time.Millisecond {
		t.Errorf("rtt = %v, want 50ms (25ms each way)", rtt)
	}
}

func TestPacketLossRate(t *testing.T) {
	n := New(42)
	// 11% per-packet loss, the paper's Iran measurement. Per exchange the
	// survival probability is (1-0.11)^2 ≈ 0.792.
	n.Register(testServer, LinkProfile{Loss: 0.11}, echoHandler())
	conn := n.Bind(testClient)
	const trials = 5000
	losses := 0
	for i := 0; i < trials; i++ {
		_, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "a.example", dnswire.TypeA), testServer)
		switch {
		case errors.Is(err, ErrTimeout):
			losses++
		case err != nil:
			t.Fatal(err)
		}
	}
	got := float64(losses) / trials
	want := 1 - 0.89*0.89
	if got < want-0.02 || got > want+0.02 {
		t.Errorf("observed loss %.3f, want ≈%.3f", got, want)
	}
}

func TestLossChargesTimeout(t *testing.T) {
	n := New(7)
	n.SetTimeout(time.Second)
	n.Register(testServer, LinkProfile{Loss: 1}, echoHandler())
	_, rtt, err := n.Bind(testClient).Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if rtt != time.Second {
		t.Errorf("rtt = %v, want the 1s timeout", rtt)
	}
}

// eventFunc adapts a function to EventHandler.
type eventFunc func(ctx context.Context, sched *des.Scheduler, src netip.Addr, q *dnswire.Message, r Responder)

func (f eventFunc) ServeDNSEvent(ctx context.Context, sched *des.Scheduler, src netip.Addr, q *dnswire.Message, r Responder) {
	f(ctx, sched, src, q, r)
}

func TestNestedExchangeInflatesRTT(t *testing.T) {
	n := New(1)
	upstream := MustAddr("203.0.113.1")
	n.Register(upstream, LinkProfile{OneWay: 30 * time.Millisecond}, echoHandler())
	// A "resolver" that forwards every query upstream before answering —
	// the cache-miss path of the timing side channel. The upstream
	// schedule settles on the resolver's source lane, which in a one-lane
	// universe is the delivering lane.
	resolver := eventFunc(func(ctx context.Context, sched *des.Scheduler, _ netip.Addr, q *dnswire.Message, r Responder) {
		ExchangeRetryEvent(ctx, sched, n.Bind(testServer), q, upstream, 1, Backoff{},
			func(_ *dnswire.Message, _ time.Duration, err error) {
				if err != nil {
					r.Respond(sched.Now(), nil, err)
					return
				}
				r.Respond(sched.Now(), dnswire.NewResponse(q), nil)
			})
	})
	n.Register(testServer, LinkProfile{OneWay: 5 * time.Millisecond}, resolver)

	_, rtt, err := n.Bind(testClient).Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	// Client<->resolver: 10ms. Resolver<->upstream: 2*(5+30) = 70ms.
	if rtt != 80*time.Millisecond {
		t.Errorf("rtt = %v, want 80ms including upstream leg", rtt)
	}
}

func TestRespondAfterInflatesRTT(t *testing.T) {
	n := New(1)
	slow := eventFunc(func(_ context.Context, sched *des.Scheduler, _ netip.Addr, q *dnswire.Message, r Responder) {
		RespondAfter(sched, 15*time.Millisecond, r, dnswire.NewResponse(q), nil)
	})
	n.Register(testServer, LinkProfile{}, slow)
	_, rtt, err := n.Bind(testClient).Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 15*time.Millisecond {
		t.Errorf("rtt = %v, want 15ms of charged processing", rtt)
	}
}

func TestUnregister(t *testing.T) {
	n := New(1)
	n.Register(testServer, LinkProfile{}, echoHandler())
	if !n.Registered(testServer) {
		t.Fatal("host not registered")
	}
	n.Unregister(testServer)
	if n.Registered(testServer) {
		t.Fatal("host still registered")
	}
	_, _, err := n.Bind(testClient).Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute after unregister", err)
	}
}

func TestStatsCounting(t *testing.T) {
	n := New(1)
	reg := metrics.New()
	n.SetMetrics(reg)
	n.Register(testServer, LinkProfile{}, echoHandler())
	conn := n.Bind(testClient)
	for i := 0; i < 3; i++ {
		if _, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "a.example", dnswire.TypeA), testServer); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter("netsim.packets.sent"); got != 3 {
		t.Errorf("packets.sent = %d, want 3", got)
	}
	if got := snap.Counter("netsim.packets.recvd"); got != 3 {
		t.Errorf("packets.recvd = %d, want 3", got)
	}
	if got := snap.Counter("netsim.packets.lost"); got != 0 {
		t.Errorf("packets.lost = %d, want 0", got)
	}
}

func TestJitterBoundsRTT(t *testing.T) {
	n := New(99)
	n.Register(testServer, LinkProfile{OneWay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}, echoHandler())
	conn := n.Bind(testClient)
	for i := 0; i < 200; i++ {
		_, rtt, err := conn.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "a.example", dnswire.TypeA), testServer)
		if err != nil {
			t.Fatal(err)
		}
		if rtt < 20*time.Millisecond || rtt > 30*time.Millisecond {
			t.Fatalf("rtt = %v outside [20ms, 30ms]", rtt)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		n := New(123)
		n.Register(testServer, LinkProfile{OneWay: 10 * time.Millisecond, Jitter: 8 * time.Millisecond, Loss: 0.05}, echoHandler())
		conn := n.Bind(testClient)
		out := make([]time.Duration, 0, 50)
		for i := 0; i < 50; i++ {
			_, rtt, _ := conn.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "a.example", dnswire.TypeA), testServer)
			out = append(out, rtt)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at exchange %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestConcurrentExchanges(t *testing.T) {
	n := New(5)
	reg := metrics.New()
	n.SetMetrics(reg)
	n.Register(testServer, LinkProfile{Jitter: time.Millisecond, Loss: 0.01}, echoHandler())
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn := n.Bind(testClient)
			for j := 0; j < 20; j++ {
				_, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(uint16(id), "a.example", dnswire.TypeA), testServer)
				if err != nil && !errors.Is(err, ErrTimeout) {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := reg.Snapshot().Counter("netsim.packets.sent"); got != 64*20 {
		t.Errorf("packets.sent = %d, want %d", got, 64*20)
	}
}

func TestAddrRange(t *testing.T) {
	got := AddrRange(MustAddr("10.0.0.254"), 3)
	want := []netip.Addr{MustAddr("10.0.0.254"), MustAddr("10.0.0.255"), MustAddr("10.0.1.0")}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr %d = %v, want %v", i, got[i], want[i])
		}
	}
	if out := AddrRange(MustAddr("10.0.0.1"), 0); len(out) != 0 {
		t.Errorf("zero-count range returned %v", out)
	}
}

func TestExchangeRetryRecoversFromLoss(t *testing.T) {
	n := New(11)
	n.Register(testServer, LinkProfile{Loss: 0.5}, echoHandler())
	conn := n.Bind(testClient)
	ok := 0
	for i := 0; i < 200; i++ {
		_, _, err := ExchangeRetry(context.Background(), conn, dnswire.NewQuery(uint16(i), "a.example", dnswire.TypeA), testServer, 16)
		if err == nil {
			ok++
		}
	}
	// Per-attempt success ≈ 0.25, so failing 16 straight ≈ 0.75^16 ≈ 1%;
	// allow a little slack.
	if ok < 190 {
		t.Errorf("only %d/200 retried exchanges succeeded", ok)
	}
}

func TestExchangeRetryAccumulatesTime(t *testing.T) {
	n := New(3)
	n.SetTimeout(time.Second)
	n.Register(testServer, LinkProfile{Loss: 1}, echoHandler())
	query := dnswire.NewQuery(1, "a.example", dnswire.TypeA)
	_, total, err := ExchangeRetry(context.Background(), n.Bind(testClient), query, testServer, 3)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	bo, seed := DefaultBackoff(), retrySeed(query, testServer)
	want := 3*time.Second + bo.Wait(seed, 1) + bo.Wait(seed, 2)
	if total != want {
		t.Errorf("total = %v, want %v (3 timeouts + 2 backoff waits)", total, want)
	}
}

func TestExchangeRetryNonTimeoutFailsFast(t *testing.T) {
	n := New(3)
	calls := 0
	n.Register(testServer, LinkProfile{}, HandlerFunc(func(context.Context, netip.Addr, *dnswire.Message) (*dnswire.Message, error) {
		calls++
		return nil, errors.New("boom")
	}))
	_, _, err := ExchangeRetry(context.Background(), n.Bind(testClient), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer, 5)
	if err == nil {
		t.Fatal("want error")
	}
	if calls != 1 {
		t.Errorf("handler called %d times, want 1 (no retry on hard errors)", calls)
	}
}

func TestHandlerPanicBecomesError(t *testing.T) {
	n := New(1)
	n.Register(testServer, LinkProfile{}, HandlerFunc(
		func(context.Context, netip.Addr, *dnswire.Message) (*dnswire.Message, error) {
			panic("boom")
		}))
	_, _, err := n.Bind(testClient).Exchange(context.Background(),
		dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if err == nil || !strings.Contains(err.Error(), "handler panic") {
		t.Errorf("err = %v, want handler panic error", err)
	}
	// The network stays usable afterwards.
	n.Register(testServer, LinkProfile{}, echoHandler())
	if _, _, err := n.Bind(testClient).Exchange(context.Background(),
		dnswire.NewQuery(2, "a.example", dnswire.TypeA), testServer); err != nil {
		t.Errorf("network unusable after panic: %v", err)
	}
}

func TestSetMetricsCountsPacketsAndRTT(t *testing.T) {
	n := New(1)
	reg := metrics.New()
	n.SetMetrics(reg)
	n.Register(testServer, LinkProfile{OneWay: 5 * time.Millisecond}, echoHandler())
	conn := n.Bind(testClient)
	for i := 0; i < 3; i++ {
		if _, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(uint16(i+1), "a.example", dnswire.TypeA), testServer); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	// Each lossless exchange sends one query and receives one response.
	if got := s.Counter("netsim.packets.sent"); got != 3 {
		t.Errorf("packets.sent = %d, want 3", got)
	}
	if got := s.Counter("netsim.packets.recvd"); got != 3 {
		t.Errorf("packets.recvd = %d, want 3", got)
	}
	if got := s.Counter("netsim.packets.lost"); got != 0 {
		t.Errorf("packets.lost = %d, want 0", got)
	}
	h := s.Histograms["netsim.rtt_us."+testServer.String()]
	if h.Count != 3 {
		t.Errorf("rtt histogram count = %d, want 3", h.Count)
	}
	if want := int64(3 * 10_000); h.Sum != want { // 10ms per round trip
		t.Errorf("rtt histogram sum = %d µs, want %d", h.Sum, want)
	}
}

func TestSetMetricsCountsLossAndRetries(t *testing.T) {
	n := New(1)
	reg := metrics.New()
	n.SetMetrics(reg)
	n.Register(testServer, LinkProfile{Loss: 1.0}, echoHandler())
	conn := n.Bind(testClient)
	_, _, err := ExchangeRetry(context.Background(), conn, dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer, 4)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout under total loss", err)
	}
	s := reg.Snapshot()
	if got := s.Counter("netsim.packets.lost"); got != 4 {
		t.Errorf("packets.lost = %d, want 4 (every attempt's query dropped)", got)
	}
	if got := s.Counter("netsim.retries"); got != 3 {
		t.Errorf("retries = %d, want 3 (attempts beyond the first)", got)
	}
}
