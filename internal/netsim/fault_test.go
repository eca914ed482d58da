package netsim

import (
	"context"
	"errors"
	"math"
	"net/netip"
	"testing"
	"time"

	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim/des"
	"dnscde/internal/trace"
)

// countedNetwork returns a network with a fresh registry attached, so a
// test can read the packet and fault counters back.
func countedNetwork(seed int64) (*Network, *metrics.Registry) {
	n := New(seed)
	reg := metrics.New()
	n.SetMetrics(reg)
	return n, reg
}

// exchangeN runs k exchanges over conn with distinct query names and
// returns how many succeeded.
func exchangeN(t *testing.T, conn *Conn, dst netip.Addr, k int) int {
	t.Helper()
	ok := 0
	for i := 0; i < k; i++ {
		q := dnswire.NewQuery(uint16(i), "q"+string(rune('a'+i%26))+".example", dnswire.TypeA)
		if _, _, err := conn.Exchange(context.Background(), q, dst); err == nil {
			ok++
		}
	}
	return ok
}

// TestClientProfileFallback is the regression test for the unregistered-
// source bug: Exchange used to leave srcProfile zero-valued whenever the
// bound source had no registered host, silently disabling client-side loss
// and delay. The fallback is now the network's configurable client
// profile.
func TestClientProfileFallback(t *testing.T) {
	n := New(7)
	n.Register(testServer, LinkProfile{}, echoHandler())
	conn := n.Bind(testClient) // testClient is NOT registered

	// Default client profile is still the zero profile: unchanged behaviour.
	if _, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer); err != nil {
		t.Fatalf("default client profile should be lossless: %v", err)
	}

	// A lossy client profile must now reach unregistered sources.
	n.SetClientProfile(LinkProfile{Loss: 1})
	if _, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(2, "b.example", dnswire.TypeA), testServer); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout (client-side loss must apply to unregistered sources)", err)
	}

	// Client-side delay applies too.
	n.SetClientProfile(LinkProfile{OneWay: 7 * time.Millisecond})
	_, rtt, err := conn.Exchange(context.Background(), dnswire.NewQuery(3, "c.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 14*time.Millisecond {
		t.Errorf("rtt = %v, want 14ms from the client profile's one-way delay", rtt)
	}

	// A registered source still wins over the fallback.
	n.Register(testClient, LinkProfile{}, echoHandler())
	_, rtt, err = conn.Exchange(context.Background(), dnswire.NewQuery(4, "d.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 0 {
		t.Errorf("rtt = %v, want 0 (registered source profile overrides fallback)", rtt)
	}
}

func TestBurstLossParameterisation(t *testing.T) {
	for _, tc := range []struct{ rate, mean float64 }{
		{0.01, 1}, {0.04, 4}, {0.11, 4}, {0.25, 8},
	} {
		ge := BurstLoss(tc.rate, tc.mean)
		if got := ge.MeanLoss(); math.Abs(got-tc.rate) > 1e-12 {
			t.Errorf("BurstLoss(%v, %v).MeanLoss() = %v, want %v", tc.rate, tc.mean, got, tc.rate)
		}
		if ge.PBadGood != 1/tc.mean {
			t.Errorf("BurstLoss(%v, %v).PBadGood = %v, want %v", tc.rate, tc.mean, ge.PBadGood, 1/tc.mean)
		}
	}
	if BurstLoss(0, 4).enabled() {
		t.Error("BurstLoss(0, ...) must be disabled")
	}
}

// TestBurstLossStationaryRate drives many packets through a Gilbert–
// Elliott link and confirms the empirical loss matches the configured
// stationary rate, and that losses are burstier than an i.i.d. coin.
func TestBurstLossStationaryRate(t *testing.T) {
	const rate, meanBurst = 0.11, 4.0
	n := New(2017)
	n.Register(testServer, LinkProfile{Faults: &FaultProfile{BurstLoss: BurstLoss(rate, meanBurst)}}, echoHandler())
	conn := n.Bind(testClient)

	const trials = 4000
	lost, burstRun, maxRun := 0, 0, 0
	for i := 0; i < trials; i++ {
		q := dnswire.NewQuery(uint16(i), "a.example", dnswire.TypeA)
		if _, _, err := conn.Exchange(context.Background(), q, testServer); err != nil {
			lost++
			burstRun++
			if burstRun > maxRun {
				maxRun = burstRun
			}
		} else {
			burstRun = 0
		}
	}
	got := float64(lost) / trials
	// Each exchange draws two packets (query + response), so per-exchange
	// failure ≈ 1-(1-rate)² ≈ 0.208 — but bursts correlate the two draws;
	// accept a generous band around the per-packet rate.
	if got < 0.08 || got > 0.30 {
		t.Errorf("empirical exchange-loss rate = %v, want within [0.08, 0.30] for per-packet rate %v", got, rate)
	}
	// With mean burst 4 packets, multi-exchange loss runs must occur —
	// i.i.d. loss at this rate would make a 3-run rare (~0.1%·trials).
	if maxRun < 2 {
		t.Errorf("max consecutive lost exchanges = %d, want >= 2 (burstiness)", maxRun)
	}
}

func TestServFailRefusedInjection(t *testing.T) {
	handlerCalls := 0
	n, reg := countedNetwork(5)
	n.Register(testServer, LinkProfile{Faults: &FaultProfile{ServFailRate: 1}},
		HandlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			handlerCalls++
			return dnswire.NewResponse(q), nil
		}))
	conn := n.Bind(testClient)

	tr := trace.New()
	ctx := trace.With(context.Background(), tr)
	resp, _, err := conn.Exchange(ctx, dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("RCode = %v, want SERVFAIL", resp.Header.RCode)
	}
	if !resp.Header.Response || len(resp.Question) != 1 {
		t.Error("injected response must echo the question with QR set")
	}
	if handlerCalls != 0 {
		t.Errorf("handler called %d times, want 0 (injection short-circuits)", handlerCalls)
	}
	if kinds := tr.Kinds(); len(kinds) == 0 || kinds[0] != "fault" {
		t.Errorf("trace kinds = %v, want a fault event", kinds)
	}
	if got := reg.Snapshot().Counter("netsim.faults.servfail"); got != 1 {
		t.Errorf("faults.servfail = %d, want 1", got)
	}

	n.Register(testServer, LinkProfile{Faults: &FaultProfile{RefusedRate: 1}}, echoHandler())
	resp, _, err = conn.Exchange(context.Background(), dnswire.NewQuery(2, "b.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("RCode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestTruncationAndTCPImmunity(t *testing.T) {
	n, reg := countedNetwork(9)
	n.Register(testServer, LinkProfile{OneWay: 5 * time.Millisecond, Faults: &FaultProfile{TruncateRate: 1}},
		HandlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			resp := dnswire.NewResponse(q)
			resp.Header.Authoritative = true
			resp.Answer = append(resp.Answer, dnswire.RR{
				Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.ARecord{Addr: MustAddr("203.0.113.1")},
			})
			return resp, nil
		}))
	conn := n.Bind(testClient)

	resp, udpRTT, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated {
		t.Fatal("UDP response must carry the TC bit at TruncateRate 1")
	}
	if len(resp.Answer) != 0 {
		t.Errorf("truncated response kept %d answers, want 0", len(resp.Answer))
	}
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative {
		t.Error("truncation must preserve RCode and AA")
	}

	tcpResp, tcpRTT, err := conn.TCP().Exchange(context.Background(), dnswire.NewQuery(2, "a.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if tcpResp.Header.Truncated || len(tcpResp.Answer) != 1 {
		t.Errorf("TCP exchange must be immune to truncation: TC=%v answers=%d", tcpResp.Header.Truncated, len(tcpResp.Answer))
	}
	if tcpRTT <= udpRTT {
		t.Errorf("TCP rtt = %v, want > UDP rtt %v (handshake round trip)", tcpRTT, udpRTT)
	}
	if got := reg.Snapshot().Counter("netsim.faults.truncated"); got != 1 {
		t.Errorf("faults.truncated = %d, want 1 (TCP path must not count)", got)
	}
}

func TestScheduledOutageWindow(t *testing.T) {
	n, reg := countedNetwork(3)
	n.Register(testServer, LinkProfile{Faults: &FaultProfile{Outages: []OutageWindow{{Start: 2, End: 4}}}}, echoHandler())
	conn := n.Bind(testClient)

	var results []bool
	for i := 0; i < 6; i++ {
		_, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "a.example", dnswire.TypeA), testServer)
		results = append(results, err == nil)
	}
	want := []bool{true, true, false, false, true, true}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("exchange %d ok=%v, want %v (outage window [2,4))", i, results[i], want[i])
		}
	}
	if got := reg.Snapshot().Counter("netsim.faults.outage"); got != 2 {
		t.Errorf("faults.outage = %d, want 2", got)
	}
	// The window is per-flow: a different source has its own counter and
	// hits the same schedule independently.
	other := n.Bind(MustAddr("192.0.2.99"))
	if ok := exchangeN(t, other, testServer, 2); ok != 2 {
		t.Errorf("fresh flow: %d/2 exchanges ok before its own window, want 2", ok)
	}
}

func TestSetDown(t *testing.T) {
	n := New(3)
	n.Register(testServer, LinkProfile{}, echoHandler())
	conn := n.Bind(testClient)

	n.SetDown(testServer, true)
	if _, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout while down", err)
	}
	n.SetDown(testServer, false)
	if _, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(2, "a.example", dnswire.TypeA), testServer); err != nil {
		t.Fatalf("err = %v after SetDown(false), want success", err)
	}
}

func TestDuplicateDelivery(t *testing.T) {
	handlerCalls := 0
	n := New(4)
	n.Register(testServer, LinkProfile{Faults: &FaultProfile{DuplicateRate: 1}},
		HandlerFunc(func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			handlerCalls++
			resp := dnswire.NewResponse(q)
			resp.Header.Authoritative = handlerCalls == 1 // marks the first serve's reply
			return resp, nil
		}))
	conn := n.Bind(testClient)
	resp, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if err != nil {
		t.Fatal(err)
	}
	if handlerCalls != 2 {
		t.Errorf("handler called %d times, want 2 (duplicated delivery)", handlerCalls)
	}
	if !resp.Header.Authoritative {
		t.Error("client got the duplicate's reply; it must be dropped")
	}
	// TCP streams never duplicate.
	handlerCalls = 0
	if _, _, err := conn.TCP().Exchange(context.Background(), dnswire.NewQuery(2, "b.example", dnswire.TypeA), testServer); err != nil {
		t.Fatal(err)
	}
	if handlerCalls != 1 {
		t.Errorf("TCP: handler called %d times, want 1", handlerCalls)
	}
}

func TestLateResponseTimesOutButServes(t *testing.T) {
	handlerCalls := 0
	n, reg := countedNetwork(6)
	n.SetTimeout(time.Second)
	n.Register(testServer, LinkProfile{Faults: &FaultProfile{LateRate: 1}},
		eventFunc(func(_ context.Context, sched *des.Scheduler, _ netip.Addr, q *dnswire.Message, r Responder) {
			handlerCalls++
			RespondAfter(sched, 30*time.Millisecond, r, dnswire.NewResponse(q), nil)
		}))
	conn := n.Bind(testClient)
	_, total, err := conn.Exchange(context.Background(), dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout for a late response", err)
	}
	if handlerCalls != 1 {
		t.Errorf("handler called %d times, want 1 (server-side effects persist)", handlerCalls)
	}
	// The client's retransmission timer runs concurrently with the
	// server's work, so the charge is the timeout alone — not timeout
	// plus handler time.
	if total != time.Second {
		t.Errorf("total = %v, want the bare timeout", total)
	}
	if got := reg.Snapshot().Counter("netsim.faults.late"); got != 1 {
		t.Errorf("faults.late = %d, want 1", got)
	}
}

// TestFaultDeterminism replays the same exchange sequence on two networks
// with the same seed and expects identical outcomes, including fault
// injections — the property TestWorkersInvariance relies on.
func TestFaultDeterminism(t *testing.T) {
	run := func() (string, int) {
		n, reg := countedNetwork(2017)
		fp := &FaultProfile{
			BurstLoss:    BurstLoss(0.11, 4),
			ServFailRate: 0.05,
			TruncateRate: 0.03,
			LateRate:     0.02,
			Outages:      []OutageWindow{{Start: 10, End: 15}},
		}
		n.Register(testServer, LinkProfile{Jitter: time.Millisecond, Faults: fp}, echoHandler())
		ok := exchangeN(t, n.Bind(testClient), testServer, 500)
		return reg.Snapshot().Format(), ok
	}
	s1, ok1 := run()
	s2, ok2 := run()
	if s1 != s2 || ok1 != ok2 {
		t.Errorf("fault injection not deterministic:\n%s ok=%d\n%s ok=%d", s1, ok1, s2, ok2)
	}
}

func TestParseFaultProfile(t *testing.T) {
	tests := []struct {
		spec    string
		want    string // re-rendered via String()
		wantErr bool
	}{
		{spec: "", want: ""},
		{spec: "burst=0.11:4", want: "burst=0.11:4"},
		{spec: "burst=0.05", want: "burst=0.05:4"}, // default mean burst
		{spec: "servfail=0.02,refused=0.01", want: "servfail=0.02,refused=0.01"},
		{spec: "truncate=0.5,duplicate=0.1,late=0.2", want: "truncate=0.5,duplicate=0.1,late=0.2"},
		{spec: "outage=10+20", want: "outage=10+20"},
		{spec: "burst=0.11:4,servfail=0.02,outage=5+5", want: "burst=0.11:4,servfail=0.02,outage=5+5"},
		{spec: "bogus=1", wantErr: true},
		{spec: "servfail=1.5", wantErr: true},
		{spec: "servfail=x", wantErr: true},
		{spec: "burst=0.1:0.5", wantErr: true},
		{spec: "outage=10", wantErr: true},
		{spec: "outage=-1+5", wantErr: true},
		{spec: "servfail", wantErr: true},
	}
	for _, tc := range tests {
		fp, err := ParseFaultProfile(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseFaultProfile(%q): want error, got %v", tc.spec, fp)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFaultProfile(%q): %v", tc.spec, err)
			continue
		}
		if got := fp.String(); got != tc.want {
			t.Errorf("ParseFaultProfile(%q).String() = %q, want %q", tc.spec, got, tc.want)
		}
	}
	if fp, err := ParseFaultProfile("  "); err != nil || fp != nil {
		t.Errorf("blank spec: got (%v, %v), want (nil, nil)", fp, err)
	}
}
