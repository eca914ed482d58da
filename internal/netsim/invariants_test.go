package netsim

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnscde/internal/dnswire"
	"dnscde/internal/metrics"
)

// TestStatsMetricsInvariants drives N clean or single-fault exchanges per
// FaultKind and asserts that the packet counters and the per-kind fault
// counters in the registry match the injected behaviour — at workers 1 and 8
// (each worker owns its own source address, preserving the per-source
// determinism contract).
func TestStatsMetricsInvariants(t *testing.T) {
	const perWorker = 8

	type expect struct {
		// per exchange: whether it succeeds, and which counters move.
		wantErr   error // nil, or ErrTimeout
		lost      int64 // packets.lost increments per exchange
		recvd     int64 // packets.recvd increments per exchange
		faultKind FaultKind
		rttIs     func(timeout time.Duration, rtt time.Duration) bool
	}
	cases := []struct {
		name    string
		profile LinkProfile
		exp     expect
	}{
		{
			name:    "clean",
			profile: LinkProfile{},
			exp:     expect{recvd: 1},
		},
		{
			name:    "servfail",
			profile: LinkProfile{Faults: &FaultProfile{ServFailRate: 1}},
			exp:     expect{recvd: 1, faultKind: FaultServFail},
		},
		{
			name:    "refused",
			profile: LinkProfile{Faults: &FaultProfile{RefusedRate: 1}},
			exp:     expect{recvd: 1, faultKind: FaultRefused},
		},
		{
			name:    "truncate",
			profile: LinkProfile{Faults: &FaultProfile{TruncateRate: 1}},
			exp:     expect{recvd: 1, faultKind: FaultTruncate},
		},
		{
			name:    "duplicate",
			profile: LinkProfile{Faults: &FaultProfile{DuplicateRate: 1}},
			exp:     expect{recvd: 1, faultKind: FaultDuplicate},
		},
		{
			name:    "late",
			profile: LinkProfile{Faults: &FaultProfile{LateRate: 1}},
			exp: expect{
				wantErr: ErrTimeout, recvd: 1, faultKind: FaultLate,
				// The late response is charged the bare timeout: the
				// retransmission timer ran concurrently with the server.
				rttIs: func(timeout, rtt time.Duration) bool { return rtt == timeout },
			},
		},
		{
			name:    "outage",
			profile: LinkProfile{Faults: &FaultProfile{Outages: []OutageWindow{{Start: 0, End: 1 << 30}}}},
			exp: expect{
				wantErr: ErrTimeout, lost: 1, faultKind: FaultOutage,
				rttIs: func(timeout, rtt time.Duration) bool { return rtt == timeout },
			},
		},
		{
			name:    "loss",
			profile: LinkProfile{Loss: 1},
			exp: expect{
				wantErr: ErrTimeout, lost: 1,
				rttIs: func(timeout, rtt time.Duration) bool { return rtt == timeout },
			},
		},
	}

	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				n := New(42)
				reg := metrics.New()
				n.SetMetrics(reg)
				const timeout = 750 * time.Millisecond
				n.SetTimeout(timeout)
				n.Register(testServer, tc.profile, echoHandler())

				var wg sync.WaitGroup
				errs := make([]error, workers*perWorker)
				rtts := make([]time.Duration, workers*perWorker)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						src := netip.AddrFrom4([4]byte{192, 0, 2, byte(100 + w)})
						conn := n.Bind(src)
						for i := 0; i < perWorker; i++ {
							q := dnswire.NewQuery(uint16(w*perWorker+i+1), "a.example", dnswire.TypeA)
							_, rtt, err := conn.Exchange(context.Background(), q, testServer)
							errs[w*perWorker+i] = err
							rtts[w*perWorker+i] = rtt
						}
					}(w)
				}
				wg.Wait()

				total := int64(workers * perWorker)
				for i, err := range errs {
					if tc.exp.wantErr == nil && err != nil {
						t.Fatalf("exchange %d: unexpected error %v", i, err)
					}
					if tc.exp.wantErr != nil && !errors.Is(err, tc.exp.wantErr) {
						t.Fatalf("exchange %d: err = %v, want %v", i, err, tc.exp.wantErr)
					}
					if tc.exp.rttIs != nil && !tc.exp.rttIs(timeout, rtts[i]) {
						t.Fatalf("exchange %d: rtt = %v violates the charge contract (timeout %v)", i, rtts[i], timeout)
					}
				}

				snap := reg.Snapshot()

				// Every exchange sends exactly one query packet...
				if got := snap.Counter("netsim.packets.sent"); got != total {
					t.Errorf("packets.sent = %d, want %d (one per exchange)", got, total)
				}
				if want := tc.exp.lost * total; snap.Counter("netsim.packets.lost") != want {
					t.Errorf("packets.lost = %d, want %d", snap.Counter("netsim.packets.lost"), want)
				}
				// ...and receives exactly as many responses as reached the
				// packing stage (even late ones were served and packed).
				if want := tc.exp.recvd * total; snap.Counter("netsim.packets.recvd") != want {
					t.Errorf("packets.recvd = %d, want %d", snap.Counter("netsim.packets.recvd"), want)
				}

				// Every FaultKind has its counter, fired or not.
				faultCounters := []struct {
					kind FaultKind
					name string
				}{
					{FaultServFail, "netsim.faults.servfail"},
					{FaultRefused, "netsim.faults.refused"},
					{FaultTruncate, "netsim.faults.truncated"},
					{FaultDuplicate, "netsim.faults.duplicated"},
					{FaultLate, "netsim.faults.late"},
					{FaultOutage, "netsim.faults.outage"},
				}
				for _, fc := range faultCounters {
					want := int64(0)
					if fc.kind == tc.exp.faultKind {
						want = total
					}
					if got := snap.Counter(fc.name); got != want {
						t.Errorf("fault %s: count = %d, want %d", fc.kind, got, want)
					}
				}
			})
		}
	}
}

// TestCleanExchangePacketAccounting is the regression test for the
// double-counted sent packet: one clean exchange is exactly one sent and
// one received packet.
func TestCleanExchangePacketAccounting(t *testing.T) {
	n := New(7)
	reg := metrics.New()
	n.SetMetrics(reg)
	n.Register(testServer, LinkProfile{}, echoHandler())
	if _, _, err := n.Bind(testClient).Exchange(context.Background(),
		dnswire.NewQuery(1, "a.example", dnswire.TypeA), testServer); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("netsim.packets.sent"); got != 1 {
		t.Errorf("packets.sent = %d, want exactly 1 per clean exchange", got)
	}
	if got := snap.Counter("netsim.packets.recvd"); got != 1 {
		t.Errorf("packets.recvd = %d, want exactly 1 per clean exchange", got)
	}
}
