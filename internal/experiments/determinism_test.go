package experiments

import (
	"context"
	"testing"
)

// TestWorkersInvariance is the determinism regression test for the detpar
// refactor: every registry experiment must render byte-identical reports
// at workers=1 and workers=8. Trial RNGs are derived per index (never
// from goroutine scheduling), results merge in index order, and metrics
// counters are commutative, so the whole report — tables, checks and the
// cost summary — must not depend on the worker count.
//
// Population sizes are scaled down so the full registry stays affordable;
// invariance does not depend on scale. In -short mode only the
// Monte-Carlo-heavy experiments run (the dataset sweeps dominate the
// runtime without exercising different machinery).
func TestWorkersInvariance(t *testing.T) {
	shortSet := map[string]bool{
		"thm51": true, "initvalidate": true, "carpet": true,
		"cost": true, "classify": true, "ablation-crosstraffic": true,
		"faults": true,
	}
	for _, id := range IDs() {
		if testing.Short() && !shortSet[id] {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				// Scale never reads Workers, so it runs at the small
				// population TestShardInvariance uses rather than its
				// 1M-client default.
				cfg := Config{
					Seed:          2017,
					OpenResolvers: 30,
					Enterprises:   20,
					ISPs:          6,
					Workers:       workers,
					ScaleClients:  30_000,
					ScaleCaches:   600,
				}
				report, err := RunContext(context.Background(), id, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return report.Render()
			}
			seq, par := render(1), render(8)
			if seq != par {
				t.Errorf("report differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
			}
		})
	}
}

// TestShardInvariance is the determinism regression test for the sharded
// scheduler: the experiments that run their worlds on it (faults and cost
// through RunSequenced, scale natively) must render byte-identical
// reports at every lane count and worker count, compared against one
// lane at one worker. Source streams are partitioned over lanes by
// address key and the workloads are causal chains, so no draw can
// reorder (DESIGN.md §12).
func TestShardInvariance(t *testing.T) {
	grid := []struct{ workers, shards int }{
		{8, 1}, {8, 2}, {1, 8}, {8, 8},
	}
	if testing.Short() {
		grid = []struct{ workers, shards int }{{8, 2}, {1, 8}}
	}
	for _, id := range []string{"faults", "cost", "scale"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			render := func(workers, shards int) string {
				cfg := Config{
					Seed:         2017,
					Workers:      workers,
					Shards:       shards,
					ScaleClients: 30_000,
					ScaleCaches:  600,
				}
				report, err := RunContext(context.Background(), id, cfg)
				if err != nil {
					t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
				}
				return report.Render()
			}
			base := render(1, 1)
			for _, g := range grid {
				if got := render(g.workers, g.shards); got != base {
					t.Errorf("report differs between workers=1 shards=1 and workers=%d shards=%d:\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s",
						g.workers, g.shards, base, g.shards, got)
				}
			}
		})
	}
}
