package scenario

import (
	"fmt"
	"net/netip"

	"dnscde/internal/dnscache"
	"dnscde/internal/loadbal"
	"dnscde/internal/netsim"
	"dnscde/internal/platform"
	"dnscde/internal/simtest"
)

// Salts separating the scenario's derived seed streams (detpar.Derive).
const (
	saltPlatform = 0x70 // per-platform seeds
	saltWorkload = 0x77 // per-workload seeds
)

// egressPolicy maps a grammar name to the platform policy.
func egressPolicy(name string) (platform.EgressPolicy, error) {
	switch name {
	case "random":
		return platform.EgressRandom, nil
	case "round-robin":
		return platform.EgressRoundRobin, nil
	case "per-cache":
		return platform.EgressPerCache, nil
	default:
		return 0, fmt.Errorf("scenario: unknown egress-policy %q", name)
	}
}

// compilePlatform materialises one platform stanza inside the world.
// earlier maps already-built platforms (forward targets are validated to
// be earlier-declared, so lookup cannot miss).
func compilePlatform(w *simtest.World, pd *PlatformDef, seed int64, earlier map[string]*platform.Platform) (*platform.Platform, error) {
	sel, err := loadbal.New(pd.Selector, seed)
	if err != nil {
		return nil, err
	}
	egr, err := egressPolicy(pd.EgressPolicy)
	if err != nil {
		return nil, err
	}
	var forwarders []netip.Addr
	if pd.ForwardTo != "" {
		up, ok := earlier[pd.ForwardTo]
		if !ok {
			return nil, fmt.Errorf("scenario: platform %s forwards to unbuilt platform %q", pd.Name, pd.ForwardTo)
		}
		forwarders = []netip.Addr{up.Config().IngressIPs[0]}
	}
	return w.NewPlatform(simtest.PlatformSpec{
		Name:    pd.Name,
		Caches:  pd.Caches,
		Ingress: pd.Ingress,
		Egress:  pd.Egress,
		Seed:    seed,
		Profile: netsim.LinkProfile{
			OneWay: pd.LinkOneWay,
			Jitter: pd.LinkJitter,
			Loss:   pd.LinkLoss,
			Faults: pd.Faults,
		},
		Mutate: func(c *platform.Config) {
			c.Selector = sel
			c.EgressPolicy = egr
			c.CachePolicy = dnscache.Policy{
				MinTTL:   pd.MinTTL,
				MaxTTL:   pd.MaxTTL,
				Capacity: pd.Capacity,
			}
			if len(forwarders) > 0 {
				c.Roots = nil
				c.Forwarders = forwarders
			}
		},
	})
}

// compileTrial builds every platform of the scenario, in declaration
// order, inside the given world.
func (s *Scenario) compileTrial(w *simtest.World, seed int64) (map[string]*platform.Platform, error) {
	plats := make(map[string]*platform.Platform, len(s.Platforms))
	for i := range s.Platforms {
		pd := &s.Platforms[i]
		plat, err := compilePlatform(w, pd, derive(seed, saltPlatform, uint64(i)), plats)
		if err != nil {
			return nil, fmt.Errorf("scenario: platform %s: %w", pd.Name, err)
		}
		plats[pd.Name] = plat
	}
	return plats, nil
}
