package udpnet

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"dnscde/internal/dnswire"
	"dnscde/internal/netsim"
)

// TCPFallback composes two Exchangers into RFC 1035 §4.2 client
// behaviour: queries go out over the UDP exchanger, and a response with
// the TC bit set is re-asked over the TCP exchanger. Both legs are plain
// netsim.Exchangers, so the same wrapper drives real sockets
// (Transport + TCP dialing) and the simulator (Conn + Conn.TCP) — which
// is what lets the truncation fault profile exercise the genuine fallback
// decision logic end-to-end without a socket in sight.
type TCPFallback struct {
	// UDP carries the initial query.
	UDP netsim.Exchanger
	// TCP carries the retry after a truncated response; nil disables the
	// fallback (truncated responses are returned as-is).
	TCP netsim.Exchanger
}

var _ netsim.Exchanger = (*TCPFallback)(nil)

// ExchangerFunc adapts a bare function to netsim.Exchanger, so transport
// legs that are naturally methods (Transport.exchangeUDP) or closures can
// slot into a TCPFallback.
type ExchangerFunc func(ctx context.Context, query *dnswire.Message, dst netip.Addr) (*dnswire.Message, time.Duration, error)

// Exchange implements netsim.Exchanger.
func (f ExchangerFunc) Exchange(ctx context.Context, query *dnswire.Message, dst netip.Addr) (*dnswire.Message, time.Duration, error) {
	return f(ctx, query, dst)
}

// Exchange implements netsim.Exchanger. The returned duration is the
// total across both legs: a truncated UDP round trip is real time a
// measurement spent before the TCP retry.
func (f *TCPFallback) Exchange(ctx context.Context, query *dnswire.Message, dst netip.Addr) (*dnswire.Message, time.Duration, error) {
	resp, rtt, err := f.UDP.Exchange(ctx, query, dst)
	if err != nil {
		return nil, rtt, err
	}
	if !resp.Header.Truncated || f.TCP == nil {
		return resp, rtt, nil
	}
	full, tcpRTT, err := f.TCP.Exchange(ctx, query, dst)
	total := rtt + tcpRTT
	if err != nil {
		return nil, total, fmt.Errorf("udpnet: tcp fallback: %w", err)
	}
	return full, total, nil
}
