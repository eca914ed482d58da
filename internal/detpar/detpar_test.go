package detpar

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMapDeterministicAcrossWorkerCounts is the core contract: the merged
// result is byte-identical at any worker count, including the sequential
// workers=1 run.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 64
	trial := func(i int, rng *rand.Rand) (string, error) {
		// Consume a scheduling-sensitive amount of randomness so any
		// stream sharing between indices would show up immediately.
		draws := 1 + rng.Intn(32)
		sum := 0
		for k := 0; k < draws; k++ {
			sum += rng.Intn(1000)
		}
		return fmt.Sprintf("trial %d: draws=%d sum=%d", i, draws, sum), nil
	}
	want, err := Map(context.Background(), 2017, n, 1, trial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, n, 0} {
		got, err := Map(context.Background(), 2017, n, workers, trial)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRandMatchesForEach: the RNG handed to fn(i, ·) is exactly Rand(seed, i),
// so sequential callers can reproduce a parallel stream.
func TestRandMatchesForEach(t *testing.T) {
	got, err := Map(context.Background(), 42, 16, 4, func(_ int, rng *rand.Rand) (int64, error) {
		return rng.Int63(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := Rand(42, i).Int63(); got[i] != want {
			t.Fatalf("index %d: first draw %d, want Rand(42,%d) draw %d", i, got[i], i, want)
		}
	}
}

// TestDeriveIndependence: nearby seeds and salts must not collide, and the
// result is always positive (0 is reserved for "default" in seed options).
func TestDeriveIndependence(t *testing.T) {
	seen := make(map[int64]string)
	for seed := int64(0); seed < 8; seed++ {
		for i := uint64(0); i < 256; i++ {
			v := Derive(seed, i)
			if v <= 0 {
				t.Fatalf("Derive(%d, %d) = %d, want positive", seed, i, v)
			}
			key := fmt.Sprintf("seed=%d i=%d", seed, i)
			if prev, dup := seen[v]; dup {
				t.Fatalf("Derive collision: %s and %s both map to %d", prev, key, v)
			}
			seen[v] = key
		}
	}
	if a, b := Derive(7, 1, 2), Derive(7, 2, 1); a == b {
		t.Fatalf("Derive must be order-sensitive in its salts; got %d twice", a)
	}
}

// TestLowestIndexErrorWins: when several trials fail, the reported error is
// the lowest-index one regardless of completion order.
func TestLowestIndexErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for run := 0; run < 10; run++ {
		err := Each(context.Background(), 32, 8, func(i int) error {
			switch i {
			case 3:
				return errLow
			case 4, 17, 31:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("run %d: got %v, want the index-3 error", run, err)
		}
	}
}

// TestErrorStopsFeeding: after a trial fails, remaining indices are skipped
// (bounded overshoot: only in-flight trials complete).
func TestErrorStopsFeeding(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	err := Each(context.Background(), 10000, 2, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if got := ran.Load(); got > 100 {
		t.Fatalf("ran %d trials after an index-0 failure; feeding did not stop", got)
	}
}

// TestContextCancellation: a cancelled ctx aborts the fan-out and is
// reported when no trial itself failed.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Each(ctx, 10000, 2, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > 100 {
		t.Fatalf("ran %d trials after cancellation", got)
	}
}

// TestMapIndexOrder: out[i] belongs to trial i even when completion order
// is scrambled by the scheduler.
func TestMapIndexOrder(t *testing.T) {
	out, err := Map(context.Background(), 1, 256, runtime.GOMAXPROCS(0), func(i int, rng *rand.Rand) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestZeroAndNegativeN: degenerate sizes complete without running fn.
func TestZeroAndNegativeN(t *testing.T) {
	for _, n := range []int{0, -3} {
		called := false
		if err := Each(context.Background(), n, 4, func(int) error { called = true; return nil }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if called {
			t.Fatalf("n=%d: fn was called", n)
		}
	}
}

// TestWorkers: the <=0 convention resolves to the hardware parallelism.
func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-1) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}
