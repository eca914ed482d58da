package main

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"dnscde/internal/dnswire"
	"dnscde/internal/loadbal"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
	"dnscde/internal/simtest"
	"dnscde/internal/udpnet"
)

// TestUDPEndToEndEnumeration runs the complete remote measurement loop
// over real loopback UDP: the target platform and the CDE nameserver are
// both exposed on sockets; cdescan probes the resolver, then reads ω and
// the egress sources from the nameserver's DNS control zone.
func TestUDPEndToEndEnumeration(t *testing.T) {
	w := simtest.MustNew(simtest.Options{Seed: 61})
	const n = 3
	plat, err := w.NewPlatform(simtest.PlatformSpec{
		Name: "udp-target", Caches: n,
		Mutate: func(c *platform.Config) { c.Selector = loadbal.NewRandom(2) },
	})
	if err != nil {
		t.Fatal(err)
	}
	session, err := w.Infra.NewFlatSession()
	if err != nil {
		t.Fatal(err)
	}
	w.Infra.Parent.EnableControlZone("ctl.cache.example.")

	// Expose the platform (resolver) and the CDE parent nameserver on
	// loopback UDP. The resolver socket relays each query into the
	// simulated network, to the platform's ingress: the platform's
	// pipeline and upstream path stay in-process, but the prober's
	// packets and the control readout travel over sockets.
	ingress := plat.Config().IngressIPs[0]
	resolverSrv := udpnet.NewServer(netsim.HandlerFunc(
		func(ctx context.Context, src netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			resp, _, err := w.Net.Bind(src).Exchange(ctx, q, ingress)
			return resp, err
		}))
	resolverAddr, err := resolverSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	nsSrv := udpnet.NewServer(w.Infra.Parent)
	nsAddr, err := nsSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, srv := range []*udpnet.Server{resolverSrv, nsSrv} {
		wg.Add(1)
		go func(s *udpnet.Server) {
			defer wg.Done()
			_ = s.Serve(ctx)
		}(srv)
	}
	defer func() {
		cancel()
		resolverSrv.Close()
		nsSrv.Close()
		wg.Wait()
	}()

	var sb strings.Builder
	err = runUDP(&sb, resolverAddr.String(), session.Honey, 25, nsAddr.String(), "ctl.cache.example")
	if err != nil {
		t.Fatalf("runUDP: %v\n%s", err, sb.String())
	}
	out := sb.String()
	want := fmt.Sprintf("at the nameserver): %d caches", n)
	if !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "egress IPs observed: 1") {
		t.Errorf("output missing egress readout:\n%s", out)
	}
}
