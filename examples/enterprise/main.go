// Enterprise (SMTP) study: the paper's §III-B indirect channel. A probe
// email to a nonexistent mailbox makes the enterprise's mail server issue
// SPF/DKIM/DMARC/MX lookups for the *sender's* domain — which the prober
// owns. The CNAME-chain bypass (§IV-B2a) then enumerates the enterprise's
// hidden caches without ever talking to its resolver directly.
//
//	go run ./examples/enterprise
package main

import (
	"context"
	"fmt"
	"log"

	"dnscde/internal/core"
	"dnscde/internal/loadbal"
	"dnscde/internal/platform"
	"dnscde/internal/simtest"
	"dnscde/internal/smtpsim"
)

func main() {
	w, err := simtest.New(simtest.Options{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	// The enterprise: 4 hidden caches, reached only through its SMTP
	// server's resolver.
	plat, err := w.NewPlatform(simtest.PlatformSpec{
		Name: "acme-corp", Caches: 4, Ingress: 2, Egress: 8,
		Mutate: func(c *platform.Config) { c.Selector = loadbal.NewRandom(3) },
	})
	if err != nil {
		log.Fatal(err)
	}
	policy := smtpsim.CheckPolicy{SPFTXT: true, DMARC: true, MXBounce: true}
	server := smtpsim.NewServer("acme-corp.example", policy, w.NewStub(plat.Config().IngressIPs[0]))

	ctx := context.Background()

	// Step 1: one exploratory email shows which checks the server runs
	// (the per-server signal aggregated in the paper's Table I).
	probeDomain, err := w.Infra.NewFlatSession()
	if err != nil {
		log.Fatal(err)
	}
	if err := smtpsim.SendProbe(ctx, server, probeDomain.Honey); err != nil {
		log.Fatal(err)
	}
	fmt.Println("queries triggered by one probe email:")
	entries, _ := w.Infra.Parent.Log().EntriesSince(probeDomain.Honey, 0)
	for _, e := range entries {
		fmt.Printf("  %-40s %v from egress %v\n", e.Q.Name, e.Q.Type, e.Src)
	}

	// Step 2: full cache enumeration through the email channel.
	prober := smtpsim.NewProber(server)
	enum, err := core.EnumerateChain(ctx, prober, w.Infra, core.EnumOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCNAME-chain enumeration via email: %d caches (truth %d), %d emails sent\n",
		enum.Caches, plat.GroundTruth().Caches, enum.ProbesSent)

	// Step 3: egress discovery — every email's lookups leave from some
	// egress IP; with enough distinct sender domains all of them show.
	egress, err := core.DiscoverEgressAdaptive(ctx, prober, w.Infra, 32, 4096)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("egress IPs observed at our nameservers: %d (truth %d)\n",
		len(egress.IPs), plat.GroundTruth().EgressIPs)
}
