package platform

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dnscde/internal/dnswire"
	"dnscde/internal/loadbal"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/zone"
)

// TestConcurrentClients hammers one platform from many goroutines with a
// mixture of cache hits, misses, NXDOMAINs and refused names, checking
// that counters stay consistent and no probe is lost or duplicated.
func TestConcurrentClients(t *testing.T) {
	w := buildWorld(t, 40)
	reg := metrics.New()
	p := w.newPlatform(t, func(c *Config) {
		c.CacheCount = 6
		c.Selector = loadbal.NewRandom(11)
		c.Metrics = reg
	})
	ingress := p.Config().IngressIPs[0]

	const workers = 24
	const perWorker = 40
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			conn := w.net.Bind(netsim.MustAddr(fmt.Sprintf("198.18.7.%d", wkr+1)))
			for i := 0; i < perWorker; i++ {
				var name string
				switch i % 4 {
				case 0:
					name = zone.ProbeName(1+i%20, "sub.cache.example") // shared, cacheable
				case 1:
					name = zone.ProbeName(1+i%20, "chain.example") // CNAME chain
				case 2:
					name = fmt.Sprintf("nx-%d-%d.cache.example.", wkr, i) // NXDOMAIN
				default:
					name = zone.ProbeName(1+(wkr*perWorker+i)%20, "sub.cache.example")
				}
				resp, _, err := conn.Exchange(context.Background(),
					dnswire.NewQuery(uint16(i), name, dnswire.TypeA), ingress)
				if err != nil {
					errCh <- fmt.Errorf("worker %d probe %d: %w", wkr, i, err)
					return
				}
				if rc := resp.Header.RCode; rc != dnswire.RCodeNoError && rc != dnswire.RCodeNXDomain {
					errCh <- fmt.Errorf("worker %d probe %d: rcode %v", wkr, i, rc)
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	queries := count(reg, p, "queries")
	if queries != workers*perWorker {
		t.Errorf("queries = %d, want %d", queries, workers*perWorker)
	}
	if hits, misses := count(reg, p, "cache_hits"), count(reg, p, "cache_misses"); hits+misses != queries {
		t.Errorf("hits %d + misses %d != queries %d", hits, misses, queries)
	}
	if fails, refused := count(reg, p, "upstream_fail"), count(reg, p, "refused"); fails != 0 || refused != 0 {
		t.Errorf("unexpected failures: upstream_fail = %d, refused = %d", fails, refused)
	}
}

// TestConcurrentCacheDownToggles races cache up/down toggles against
// client traffic; queries must never error (SERVFAIL only when every
// cache is down, which the toggler avoids).
func TestConcurrentCacheDownToggles(t *testing.T) {
	w := buildWorld(t, 20)
	p := w.newPlatform(t, func(c *Config) {
		c.CacheCount = 4
		c.Selector = loadbal.NewRandom(5)
	})
	ingress := p.Config().IngressIPs[0]

	stop := make(chan struct{})
	var togglerWg sync.WaitGroup
	togglerWg.Add(1)
	go func() {
		defer togglerWg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Keep at least caches 2 and 3 alive.
			p.SetCacheDown(i%2, true)
			p.SetCacheDown(i%2, false)
			i++
		}
	}()

	conn := w.net.Bind(netsim.MustAddr("198.18.8.1"))
	for i := 0; i < 400; i++ {
		name := zone.ProbeName(1+i%20, "sub.cache.example")
		resp, _, err := conn.Exchange(context.Background(), dnswire.NewQuery(uint16(i), name, dnswire.TypeA), ingress)
		if err != nil && !errors.Is(err, netsim.ErrTimeout) {
			t.Fatalf("probe %d: %v", i, err)
		}
		if err == nil && resp.Header.RCode == dnswire.RCodeServFail {
			t.Fatalf("probe %d: SERVFAIL despite live caches", i)
		}
	}
	close(stop)
	togglerWg.Wait()
}
