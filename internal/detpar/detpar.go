// Package detpar is the deterministic parallel fan-out engine behind the
// Monte-Carlo experiment drivers and the measurement pool: it runs n
// independent trials on a bounded worker pool while keeping the results
// byte-identical to a sequential run (and to itself at any worker count).
//
// Determinism rests on two rules (DESIGN.md §7, "Determinism under
// parallelism"):
//
//   - Per-index randomness. Trial i never shares an RNG with trial j:
//     Map derives an independent seed for every index via a splitmix64
//     mix of the caller's seed, so the random stream a trial consumes
//     depends only on (seed, i), never on scheduling.
//   - Index-ordered merge. Results land in a slice slot owned by their
//     index; errors are reported lowest-index-first. Nothing observable
//     depends on completion order.
//
// A trial body must therefore be self-contained: it draws randomness only
// from the *rand.Rand it is handed (or from seeds derived with Derive) and
// touches no mutable state shared with other trials except commutative
// sinks (atomic counters, sharded logs).
package detpar

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
)

// Workers resolves a worker-count setting: values <= 0 select
// runtime.GOMAXPROCS(0) — "use the hardware" — and anything else is
// returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// splitmix64 is the SplitMix64 output function (Steele, Lea & Flood,
// "Fast splittable pseudorandom number generators", OOPSLA 2014) — the
// standard way to expand one seed into many independent ones. Unlike
// seed+i, nearby inputs produce uncorrelated outputs, so per-index
// *rand.Rand streams do not overlap in practice.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix exposes the splitmix64 mixing function for consumers that need a
// deterministic, well-spread hash of a small integer key — notably the
// sharded discrete-event scheduler, which partitions simulated sources
// across event-loop lanes by Mix(addr key) so the assignment is a pure
// function of the address, never of registration or scheduling order.
func Mix(x uint64) uint64 { return splitmix64(x) }

// Derive mixes seed with the given salts into an independent sub-seed.
// It is the blessed way to seed a per-trial world, platform or selector:
// Derive(seed, i) and Derive(seed, j) are uncorrelated for i != j, and the
// result depends only on the inputs — never on scheduling. The returned
// value is always positive so it can feed APIs that treat 0 as "default".
func Derive(seed int64, salts ...uint64) int64 {
	x := splitmix64(uint64(seed))
	for _, s := range salts {
		x = splitmix64(x ^ s)
	}
	v := int64(x &^ (1 << 63))
	if v == 0 {
		v = 1
	}
	return v
}

// Rand returns the deterministic RNG for index i under seed: the stream
// Map hands to fn(i, rng). Exposed so a sequential caller (or a test)
// can reproduce exactly what a parallel run consumed.
func Rand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(Derive(seed, uint64(i))))
}

// Map runs fn(i, rng) for every i in [0, n) on a bounded pool of workers
// and merges the results in index order, so out[i] is always trial i's
// result regardless of scheduling. Each index receives its own RNG (see
// Rand), so the work is byte-identical at any worker count. The first
// error by index order is returned; after any error (or ctx cancellation)
// remaining indices are skipped. fn must not retain rng beyond its call.
func Map[T any](ctx context.Context, seed int64, n, workers int, fn func(i int, rng *rand.Rand) (T, error)) ([]T, error) {
	return mapIndexed(ctx, n, workers, func(i int) (T, error) {
		return fn(i, Rand(seed, i))
	})
}

// Each is Map for trial bodies that need no randomness (or that derive
// their own seeds with Derive): fn(i) runs for every i in [0, n) on the
// bounded pool, with the same index-ordered error contract.
func Each(ctx context.Context, n, workers int, fn func(i int) error) error {
	_, err := mapIndexed(ctx, n, workers, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// mapIndexed is the shared pool: indices are handed out through a
// channel, workers write results into their index's slot, and the lowest-
// index error wins. Workers stop picking up new indices once an error is
// recorded or ctx is cancelled; in-flight indices run to completion.
//
// mapIndexed fans out every parallel trial in the repository; its setup
// allocates O(workers) once (annotated below) and the per-index loop must
// stay allocation-free.
//
//cdelint:hotpath
func mapIndexed[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		n = 0
	}
	//cdelint:allow hotalloc result slice allocated once per fan-out, amortised over n trials
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}

	//cdelint:allow hotalloc error slots allocated once per fan-out, amortised over n trials
	errs := make([]error, n)
	var failed sync.Once
	//cdelint:allow hotalloc one stop channel per fan-out
	stop := make(chan struct{})
	abort := func() { failed.Do(func() { close(stop) }) }

	//cdelint:allow hotalloc one index channel per fan-out
	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				v, err := fn(i)
				out[i] = v
				if err != nil {
					errs[i] = err
					abort()
				}
			}
		}()
	}

feed:
	for i := 0; i < n; i++ {
		select {
		case indices <- i:
		case <-stop:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, ctx.Err()
}
