// Package simtest wires complete simulated Internets — network, clock,
// root/TLD tree, CDE infrastructure and target platforms — for tests,
// examples and the experiment drivers. It removes the boilerplate of
// assembling the same topology in every package.
package simtest

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"dnscde/internal/clock"
	"dnscde/internal/core"
	"dnscde/internal/dnstree"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/netsim/des"
	"dnscde/internal/platform"
	"dnscde/internal/stub"
)

// Default infrastructure addresses.
var (
	DefaultParentAddr = netip.MustParseAddr("203.0.113.20")
	DefaultChildAddr  = netip.MustParseAddr("203.0.113.21")
	DefaultTarget     = netip.MustParseAddr("192.0.2.80")
	DefaultClient     = netip.MustParseAddr("198.18.0.1")
)

// One-way link delays of the world's nameservers: the prober's
// authoritative servers and the root and TLD servers.
const (
	nsOneWay   = 10 * time.Millisecond
	treeOneWay = 5 * time.Millisecond
)

// World is a wired simulated Internet with CDE infrastructure.
type World struct {
	Net   *netsim.Network
	Clock *clock.Virtual
	Tree  *dnstree.Tree
	Infra *core.Infra
	// Sharded is the world's scheduler universe, Options.Shards event-loop
	// lanes. Workload code runs on it through RunSequenced, and callers
	// that multiplex many concurrent client exchanges on the loops
	// (netsim.EventExchanger / ExchangeRetryEvent) schedule on its lanes.
	// Blocking Exchange calls outside RunSequenced do not use it — they
	// drive private pooled schedulers — so a world mixes both styles
	// freely.
	Sharded *des.ShardedScheduler
	// Metrics is the cost-accounting registry wired through the network,
	// infrastructure and every platform built by NewPlatform; nil when the
	// world was created without one (all instrumentation is then no-op).
	Metrics *metrics.Registry

	seed           int64
	nextIngress    netip.Addr
	nextEgress     netip.Addr
	nextClient     netip.Addr
	platformFaults *netsim.FaultProfile
	// platforms tracks every platform built via NewPlatform in creation
	// order — the stable identity a world checkpoint is keyed by.
	platforms []*platform.Platform
}

// Options configures New.
type Options struct {
	// Seed for the network RNG; 0 uses 1.
	Seed int64
	// Metrics, when non-nil, is attached to the network, the CDE
	// infrastructure and every platform the world creates.
	Metrics *metrics.Registry
	// PlatformFaults, when non-nil, is injected into the link profile of
	// every platform the world creates (unless a spec carries its own
	// fault profile) — the switchboard for running any experiment under
	// the deterministic fault substrate.
	PlatformFaults *netsim.FaultProfile
	// Shards is the number of event-loop lanes the world's scheduler
	// runs: exchanges run as event chains partitioned across lanes by
	// source/destination address, and every handler serves on the lane
	// its address partitions to. Values below 1 mean one lane.
	Shards int
}

// New builds a world: simulated network, virtual clock, root + TLD, and a
// CDE infrastructure on cache.example.
func New(opts Options) (*World, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	w := &World{
		Net:            netsim.New(opts.Seed),
		Clock:          clock.NewVirtual(),
		Metrics:        opts.Metrics,
		seed:           opts.Seed,
		nextIngress:    netip.MustParseAddr("10.10.0.1"),
		nextEgress:     netip.MustParseAddr("10.20.0.1"),
		nextClient:     netip.MustParseAddr("10.30.0.1"),
		platformFaults: opts.PlatformFaults,
	}
	w.Sharded = des.NewSharded(opts.Shards)
	if opts.Metrics != nil {
		w.Net.SetMetrics(opts.Metrics)
	}
	tree, err := dnstree.Build(w.Net, w.Clock, netsim.LinkProfile{OneWay: treeOneWay})
	if err != nil {
		return nil, fmt.Errorf("simtest: %w", err)
	}
	w.Tree = tree
	infra, err := core.NewInfra(tree, w.Clock, core.InfraConfig{
		ParentAddr: DefaultParentAddr,
		ChildAddr:  DefaultChildAddr,
		Target:     DefaultTarget,
		Profile:    netsim.LinkProfile{OneWay: nsOneWay},
		Metrics:    opts.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("simtest: %w", err)
	}
	w.Infra = infra
	return w, nil
}

// MustNew is New for test setup; it panics on error.
func MustNew(opts Options) *World {
	w, err := New(opts)
	if err != nil {
		panic(err)
	}
	return w
}

// PlatformSpec describes a platform to create; zero fields get defaults.
type PlatformSpec struct {
	Name    string
	Caches  int
	Ingress int
	Egress  int
	Seed    int64
	Profile netsim.LinkProfile
	Mutate  func(*platform.Config)
}

// NewPlatform creates a platform with fresh ingress/egress address ranges
// carved from the world's allocator.
func (w *World) NewPlatform(spec PlatformSpec) (*platform.Platform, error) {
	if spec.Caches == 0 {
		spec.Caches = 1
	}
	if spec.Ingress == 0 {
		spec.Ingress = 1
	}
	if spec.Egress == 0 {
		spec.Egress = 1
	}
	if spec.Name == "" {
		spec.Name = "platform"
	}
	if spec.Profile == (netsim.LinkProfile{}) {
		spec.Profile = netsim.LinkProfile{OneWay: 2 * time.Millisecond}
	}
	if spec.Profile.Faults == nil {
		spec.Profile.Faults = w.platformFaults
	}
	ingress := netsim.AddrRange(w.nextIngress, spec.Ingress)
	w.nextIngress = ingress[len(ingress)-1].Next()
	egress := netsim.AddrRange(w.nextEgress, spec.Egress)
	w.nextEgress = egress[len(egress)-1].Next()

	cfg := platform.Config{
		Name:       spec.Name,
		IngressIPs: ingress,
		EgressIPs:  egress,
		CacheCount: spec.Caches,
		Roots:      w.Tree.Roots(),
		Clock:      w.Clock,
		Seed:       spec.Seed,
		Metrics:    w.Metrics,
	}
	if spec.Mutate != nil {
		spec.Mutate(&cfg)
	}
	p, err := platform.New(cfg, w.Net, spec.Profile)
	if err != nil {
		return nil, err
	}
	w.platforms = append(w.platforms, p)
	return p, nil
}

// Platforms returns the platforms built via NewPlatform, in creation
// order.
func (w *World) Platforms() []*platform.Platform {
	out := make([]*platform.Platform, len(w.platforms))
	copy(out, w.platforms)
	return out
}

// NextClientAddr allocates a fresh client host address.
func (w *World) NextClientAddr() netip.Addr {
	addr := w.nextClient
	w.nextClient = w.nextClient.Next()
	return addr
}

// NewStub creates a stub resolver (browser + OS caches) for a fresh
// client host using the given platform ingress IP.
func (w *World) NewStub(platformIP netip.Addr) *stub.Resolver {
	return stub.New(stub.Config{
		ClientAddr: w.NextClientAddr(),
		PlatformIP: platformIP,
		Clock:      w.Clock,
	}, w.Net)
}

// DirectProber creates a direct prober for the given ingress IP from a
// fresh client host.
func (w *World) DirectProber(ingress netip.Addr) *core.DirectProber {
	return core.NewDirectProber(w.Net, w.NextClientAddr(), ingress, 0)
}

// RunSequenced executes fn — a blocking, strictly sequential workload:
// probes one after another, never two in flight — against the world. It
// runs fn on its own goroutine under a des.Process, with the process in
// fn's context so every ExchangeRetry rides the world's event loops, and
// drives the scheduler until both fn and all outstanding event chains
// finish. The strict sequencing is what makes runs byte-identical at any
// shard count: every RNG draw in the workload happens in causal chain
// order (DESIGN.md §12).
func (w *World) RunSequenced(ctx context.Context, fn func(ctx context.Context) error) error {
	proc := w.Sharded.NewProcess()
	var ferr error
	var panicked any
	//cdelint:allow simgo the workload driver is the process bridge: it parks on Await between rounds, so the coordinator never runs it concurrently with a lane
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if des.Aborted(r) {
					// The universe died (a lane panic elsewhere); Run
					// reports the cause.
					return
				}
				panicked = r
			}
			proc.Finish()
		}()
		ferr = fn(netsim.WithProcess(ctx, proc))
	}()
	if err := w.Sharded.Run(); err != nil {
		return fmt.Errorf("simtest: sharded run: %w", err)
	}
	// Run returns only after every process finished; proc.Finish's mutex
	// release happens-before the coordinator's final check, so reading
	// ferr/panicked here is race-free.
	if panicked != nil {
		panic(panicked)
	}
	return ferr
}
