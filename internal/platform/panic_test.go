package platform

import (
	"context"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnscde/internal/clock"
	"dnscde/internal/dnswire"
	"dnscde/internal/loadbal"
	"dnscde/internal/netsim"
	"dnscde/internal/netsim/des"
)

// panicOnceSelector panics on its first Select, then picks cache 0.
type panicOnceSelector struct{ fired atomic.Bool }

func (s *panicOnceSelector) Select(dnswire.Question, netip.Addr, int) int {
	if !s.fired.Swap(true) {
		panic("selector exploded")
	}
	return 0
}
func (s *panicOnceSelector) Category() loadbal.Category { return loadbal.Unpredictable }
func (s *panicOnceSelector) Name() string               { return "panic-once" }

// armedClock panics on Now once armed.
type armedClock struct {
	clock.Clock
	armed atomic.Bool
}

func (c *armedClock) Now() time.Time {
	if c.armed.Load() {
		panic("clock exploded")
	}
	return c.Clock.Now()
}

// exchangeOnLanes runs one client exchange to dst on a fresh lanes-lane
// scheduler and returns its error; the run itself must not fail.
func exchangeOnLanes(t *testing.T, n *netsim.Network, lanes int, dst netip.Addr) error {
	t.Helper()
	ss := des.NewSharded(lanes)
	var got error
	settled := false
	netsim.ExchangeRetryEvent(context.Background(), ss.LaneScheduler(0), n.Bind(clientAddr),
		dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), dst, 1, netsim.Backoff{},
		func(_ *dnswire.Message, _ time.Duration, err error) { got, settled = err, true })
	if err := ss.Run(); err != nil {
		t.Fatalf("lanes=%d: run failed: %v", lanes, err)
	}
	if !settled {
		t.Fatalf("lanes=%d: client exchange never settled", lanes)
	}
	return got
}

// TestStagePanicSettlesExchange checks that a panic inside a pipeline
// stage settles the client's exchange with a handler error instead of
// killing the event loop, and that the platform keeps serving.
func TestStagePanicSettlesExchange(t *testing.T) {
	for _, lanes := range []int{0, 1, 2} {
		w := buildWorld(t, 5)
		p := w.newPlatform(t, func(c *Config) { c.Selector = &panicOnceSelector{} })
		ingress := p.Config().IngressIPs[0]
		var err error
		if lanes == 0 {
			_, _, err = w.net.Bind(clientAddr).Exchange(context.Background(),
				dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), ingress)
		} else {
			err = exchangeOnLanes(t, w.net, lanes, ingress)
		}
		if err == nil || !strings.Contains(err.Error(), "platform: panic: selector exploded") {
			t.Fatalf("lanes=%d: err = %v, want the stage panic as a handler error", lanes, err)
		}
		resp, _ := query(t, w, p, "x-1.sub.cache.example.", dnswire.TypeA)
		if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
			t.Errorf("lanes=%d: platform unusable after the panic: %v %v", lanes, resp.Header.RCode, resp.Answer)
		}
	}
}

// TestResolutionPanicSettlesExchange checks the same boundary for a panic
// inside the resolution continuation: the clock blows up once the first
// upstream answer has arrived, while the resolution resumes on the
// delivering lane.
func TestResolutionPanicSettlesExchange(t *testing.T) {
	for _, lanes := range []int{0, 1, 2} {
		w := buildWorld(t, 5)
		clk := &armedClock{Clock: w.clk}
		root := netip.MustParseAddr("203.0.113.99")
		w.net.Register(root, netsim.LinkProfile{OneWay: time.Millisecond}, netsim.HandlerFunc(
			func(_ context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
				clk.armed.Store(true)
				resp := dnswire.NewResponse(q)
				resp.Header.RCode = dnswire.RCodeNXDomain
				return resp, nil
			}))
		p := w.newPlatform(t, func(c *Config) {
			c.Clock = clk
			c.Roots = []netip.Addr{root}
		})
		ingress := p.Config().IngressIPs[0]
		var err error
		if lanes == 0 {
			_, _, err = w.net.Bind(clientAddr).Exchange(context.Background(),
				dnswire.NewQuery(1, "x-1.sub.cache.example.", dnswire.TypeA), ingress)
		} else {
			err = exchangeOnLanes(t, w.net, lanes, ingress)
		}
		if err == nil || !strings.Contains(err.Error(), "platform: panic: clock exploded") {
			t.Fatalf("lanes=%d: err = %v, want the resolution panic as a handler error", lanes, err)
		}
	}
}
