// Ad-network (ISP) study: the paper's §III-C channel. Web clients run a
// probe script delivered through an ad iframe; their browsers resolve
// prober-owned names through the ISP's resolution platform. Local browser
// and OS caches sit in the way, so the names-hierarchy bypass (§IV-B2b)
// does the counting. The 1:50 completion rate of the pop-under test is
// modelled with client patience.
//
//	go run ./examples/adnetwork
package main

import (
	"context"
	"fmt"
	"log"

	"dnscde/internal/adnet"
	"dnscde/internal/core"
	"dnscde/internal/loadbal"
	"dnscde/internal/metrics"
	"dnscde/internal/platform"
	"dnscde/internal/simtest"
)

func main() {
	reg := metrics.New()
	w, err := simtest.New(simtest.Options{Seed: 9, Metrics: reg})
	if err != nil {
		log.Fatal(err)
	}
	plat, err := w.NewPlatform(simtest.PlatformSpec{
		Name: "isp", Caches: 3, Ingress: 2, Egress: 12,
		Mutate: func(c *platform.Config) { c.Selector = loadbal.NewRandom(1) },
	})
	if err != nil {
		log.Fatal(err)
	}
	ingress := plat.Config().IngressIPs[0]
	ctx := context.Background()

	// The campaign: 100 clients load the ad; most close the pop-under
	// after a handful of fetches, 1 in 50 lets it finish.
	session, err := w.Infra.NewHierarchySession(60)
	if err != nil {
		log.Fatal(err)
	}
	clients := make([]*adnet.Client, 0, 100)
	for i := 0; i < 100; i++ {
		patience := 4
		if i%50 == 0 {
			patience = 0
		}
		clients = append(clients, adnet.NewClient(i, patience, w.NewStub(ingress)))
	}
	stats := adnet.RunCampaign(ctx, clients, func(int) []string {
		names := make([]string, 0, 40)
		for i := 1; i <= 40; i++ {
			names = append(names, session.ProbeName(i))
		}
		return names
	})
	fmt.Printf("campaign: %d clients, %d ran the script, %d completed (1:%d)\n",
		stats.Clients, stats.AJAXCallbacks, stats.Completed, stats.Clients/max(stats.Completed, 1))

	// Measurement through one patient client.
	patient := adnet.NewClient(999, 0, w.NewStub(ingress))
	enum, err := core.EnumerateHierarchy(ctx, adnet.NewProber(patient), w.Infra, core.EnumOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("names-hierarchy enumeration via browser: %d caches (truth %d), %d fetches\n",
		enum.Caches, plat.GroundTruth().Caches, enum.ProbesSent)

	// The same client cannot re-query a name (browser/OS caches); show
	// that the second fetch of a probe name never reaches the platform.
	platformQueries := func() int64 { return reg.Snapshot().Counter("platform.queries.isp") }
	before := platformQueries()
	if _, err := patient.Fetch(ctx, session.ProbeName(1)); err != nil {
		log.Fatal(err)
	}
	if _, err := patient.Fetch(ctx, session.ProbeName(1)); err != nil {
		log.Fatal(err)
	}
	after := platformQueries()
	fmt.Printf("local caches absorbed %d of 2 repeat fetches (platform saw %d)\n",
		2-int(after-before), after-before)
}
