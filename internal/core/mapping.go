package core

import (
	"context"
	"fmt"
	"net/netip"

	"dnscde/internal/dnswire"
)

// This file implements §IV-B1b: mapping ingress IP addresses to cache
// clusters with honey records, and discovering the egress IP addresses a
// platform uses.

// MappingOptions tunes the cluster-mapping procedure.
type MappingOptions struct {
	// Replicates is the carpet-bombing factor applied to each query;
	// zero defaults to 1.
	Replicates int
}

// ClusterResult groups ingress IPs by the cache cluster they map to.
type ClusterResult struct {
	// Clusters holds ingress IPs that share caches; Clusters[i] all hit
	// the caches seeded through Clusters[i][0].
	Clusters [][]netip.Addr
	// ProbesSent counts every probe issued during mapping.
	ProbesSent int
}

// MapIngressClusters discovers which ingress IPs share caches (§IV-B1b):
// plant a honey record through a cluster's representative IP, then test a
// candidate IP — "if queries are responded without accessing our server,
// we add the IP to the same cluster".
//
// A fresh honey record is used per (candidate, cluster) test: the check
// queries themselves plant the honey in the candidate's caches, so reusing
// one honey record across candidates would contaminate later tests (two
// disjoint clusters would appear merged once any candidate of the second
// cluster had been checked against the first cluster's honey).
//
// makeProber must return a direct prober for the given ingress IP.
func MapIngressClusters(ctx context.Context, in *Infra, ingress []netip.Addr, makeProber func(netip.Addr) Prober, opts MappingOptions) (ClusterResult, error) {
	if len(ingress) == 0 {
		return ClusterResult{}, fmt.Errorf("core: no ingress IPs to map")
	}
	// Seeding and checking each send enough queries to reach every cache
	// of an up-to-8-cache cluster with 99% confidence: seeding plants the
	// honey record everywhere, checking samples every cache of the
	// candidate's cluster.
	probes := RecommendedQueries(8, 0.99) * max(opts.Replicates, 1)

	var result ClusterResult
	reps := make([]Prober, 0, 4) // representative prober per cluster

	for _, ip := range ingress {
		candidate := makeProber(ip)
		assigned := false
		for cIdx, rep := range reps {
			honey, err := in.NewFlatSession()
			if err != nil {
				return result, err
			}
			// Seed through the cluster representative, covering (with high
			// probability) every cache of that cluster.
			for i := 0; i < probes; i++ {
				result.ProbesSent++
				_, _ = rep.Probe(ctx, honey.Honey, dnswire.TypeA) // losses tolerated
			}
			seeded := honey.ObservedCaches()
			// Check through the candidate: same cluster ⇒ every check is a
			// cache hit ⇒ no new arrivals at the nameserver.
			for i := 0; i < probes; i++ {
				result.ProbesSent++
				_, _ = candidate.Probe(ctx, honey.Honey, dnswire.TypeA)
			}
			if honey.ObservedCaches() == seeded {
				result.Clusters[cIdx] = append(result.Clusters[cIdx], ip)
				assigned = true
				break
			}
		}
		if !assigned {
			reps = append(reps, candidate)
			result.Clusters = append(result.Clusters, []netip.Addr{ip})
		}
	}
	return result, nil
}

// EgressResult is the outcome of egress-IP discovery.
type EgressResult struct {
	// IPs are the distinct egress addresses observed at the nameservers.
	IPs        []netip.Addr
	ProbesSent int
}
