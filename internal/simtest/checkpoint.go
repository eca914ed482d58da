package simtest

import (
	"fmt"
	"time"

	"dnscde/internal/loadbal"
	"dnscde/internal/worldstate"
)

// Snapshot captures the world's full mutable state at a quiescent
// barrier into a worldstate.Image. app is an opaque application payload
// (the scenario layer records which workload the barrier sits between);
// it rides along uninterpreted.
//
// The world must be quiescent: no events pending on any scheduler lane or
// mailbox, no exchanges in flight. Inside RunSequenced that holds exactly
// between workloads — every probe is a completed Await/Resume chain — so
// "between two workload loop iterations" is the natural barrier.
// Snapshot returns worldstate.ErrBusy otherwise and captures nothing.
//
// Not captured (see DESIGN.md §14): authoritative-zone records and query
// logs for sessions created before the barrier. Sessions are never
// re-queried after their workload completes — each workload creates fresh
// sessions with fresh names — so the zone tail is dead state; the session
// cursor is captured so post-restore sessions get the same names.
func (w *World) Snapshot(app []byte) (*worldstate.Image, error) {
	if !w.Sharded.Quiescent() {
		return nil, worldstate.ErrBusy
	}

	barrier := w.Sharded.Now()
	img := &worldstate.Image{
		Meta: worldstate.Meta{
			Seed:          w.seed,
			ClockUnixNano: w.Clock.Now().UnixNano(),
			BarrierT:      barrier,
			NextIngress:   w.nextIngress,
			NextEgress:    w.nextEgress,
			NextClient:    w.nextClient,
			SessionCursor: w.Infra.SessionCursor(),
		},
		Network: worldstate.Network{
			Stats:   w.Net.SnapshotStats(),
			Sources: w.Net.CheckpointSources(),
		},
		App: app,
	}
	for _, p := range w.platforms {
		st, err := p.Checkpoint()
		if err != nil {
			return nil, err
		}
		wp := worldstate.Platform{Name: p.Config().Name, State: st}
		for _, c := range p.Caches() {
			wp.Caches = append(wp.Caches, worldstate.CacheState{
				ID:    c.ID,
				Stats: c.SnapshotStats(),
				Items: c.CheckpointItems(),
			})
		}
		img.Platforms = append(img.Platforms, wp)
	}
	if w.Metrics != nil {
		img.Metrics = w.Metrics.Snapshot()
	}
	return img, nil
}

// Restore overlays a snapshot onto this world, which must be freshly
// built from the same scenario and seed (same platforms in the same
// order, same selector strategies, nothing run yet). After Restore the
// world continues byte-identically to the world the snapshot was taken
// from. The image is validated in full before anything is mutated; on
// error (worldstate.ErrMismatch) the world is unchanged.
func (w *World) Restore(img *worldstate.Image) error {
	if err := w.validateImage(img); err != nil {
		return err
	}

	// Clocks. The virtual clock starts at the fixed epoch in every fresh
	// world, so advancing by the difference lands exactly on the captured
	// instant; the event clock is set directly at the quiescent barrier.
	w.Clock.Advance(time.Unix(0, img.Meta.ClockUnixNano).Sub(w.Clock.Now()))
	w.Sharded.RestoreClock(img.Meta.BarrierT)

	// Allocator cursors and session IDs.
	w.nextIngress = img.Meta.NextIngress
	w.nextEgress = img.Meta.NextEgress
	w.nextClient = img.Meta.NextClient
	w.Infra.RestoreSessionCursor(img.Meta.SessionCursor)

	// Network: RNG stream positions, fault chains, folded counters.
	if err := w.Net.RestoreSources(img.Network.Sources); err != nil {
		return err
	}
	w.Net.RestoreStats(img.Network.Stats)

	// Platforms and caches.
	for i, p := range w.platforms {
		wp := img.Platforms[i]
		if err := p.RestoreCheckpoint(wp.State); err != nil {
			return err
		}
		for j, c := range p.Caches() {
			c.RestoreItems(wp.Caches[j].Items)
			c.RestoreStats(wp.Caches[j].Stats)
		}
	}

	// Metrics: the fresh registry's counters are all zero (nothing has
	// run), so merging the captured snapshot reproduces every value; the
	// captured snapshot includes zero-valued counters, so the restored
	// handle set is a superset of the fresh one and later snapshots match
	// the uninterrupted run's exactly.
	if w.Metrics != nil {
		w.Metrics.MergeSnapshot("", img.Metrics)
	}
	return nil
}

// validateImage checks that img fits this world without mutating
// anything.
func (w *World) validateImage(img *worldstate.Image) error {
	if img.Meta.Seed != w.seed {
		return fmt.Errorf("%w: snapshot seed %d, world seed %d", worldstate.ErrMismatch, img.Meta.Seed, w.seed)
	}
	if !w.Sharded.Quiescent() {
		return worldstate.ErrBusy
	}
	if len(img.Platforms) != len(w.platforms) {
		return fmt.Errorf("%w: snapshot has %d platforms, world has %d", worldstate.ErrMismatch, len(img.Platforms), len(w.platforms))
	}
	for i, p := range w.platforms {
		wp := img.Platforms[i]
		cfg := p.Config()
		if wp.Name != cfg.Name {
			return fmt.Errorf("%w: platform %d is %q in snapshot, %q in world", worldstate.ErrMismatch, i, wp.Name, cfg.Name)
		}
		fresh, ok := loadbal.CaptureState(cfg.Selector)
		if !ok {
			return fmt.Errorf("%w: platform %q selector %q is not checkpointable", worldstate.ErrMismatch, cfg.Name, cfg.Selector.Name())
		}
		if fresh.Kind != wp.State.Selector.Kind {
			return fmt.Errorf("%w: platform %q selector is %q in snapshot, %q in world", worldstate.ErrMismatch, cfg.Name, wp.State.Selector.Kind, fresh.Kind)
		}
		caches := p.Caches()
		if len(wp.Caches) != len(caches) {
			return fmt.Errorf("%w: platform %q has %d caches in snapshot, %d in world", worldstate.ErrMismatch, cfg.Name, len(wp.Caches), len(caches))
		}
		if len(wp.State.Down) != len(caches) {
			return fmt.Errorf("%w: platform %q has %d down flags for %d caches", worldstate.ErrMismatch, cfg.Name, len(wp.State.Down), len(caches))
		}
		for j, c := range caches {
			if wp.Caches[j].ID != c.ID {
				return fmt.Errorf("%w: platform %q cache %d is %q in snapshot, %q in world", worldstate.ErrMismatch, cfg.Name, j, wp.Caches[j].ID, c.ID)
			}
		}
	}
	return nil
}
