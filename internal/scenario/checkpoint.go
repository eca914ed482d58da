package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"dnscde/internal/detpar"
	"dnscde/internal/simtest"
	"dnscde/internal/worldstate"
)

// appState is the scenario layer's opaque payload inside a world
// snapshot: which trial the world belongs to, where in the workload
// sequence the barrier sits, and the outcomes of the workloads already
// completed. worldstate carries it as uninterpreted bytes; only this
// package reads it back.
type appState struct {
	Scenario string          `json:"scenario"`
	Trial    int             `json:"trial"`
	Seed     int64           `json:"seed"`
	Barrier  int             `json:"barrier"`
	Partial  []TrialWorkload `json:"partial"`
}

// TrialSeed returns the world seed trial i of a scenario receives —
// the first Int63 draw of its detpar stream, exactly what the parallel
// runner hands runTrial. Exposed so checkpoint producers and the
// divergence bisector re-create individual trial worlds without running
// the whole scenario.
func TrialSeed(scenarioSeed int64, trial int) int64 {
	return detpar.Rand(scenarioSeed, trial).Int63()
}

// MidpointBarrier returns the default snapshot barrier for a scenario:
// the workload index halfway through the sequence. A barrier of k means
// "after workload k-1 completed, before workload k starts"; 0 means
// before any workload ran.
func (s *Scenario) MidpointBarrier() int { return len(s.Workloads) / 2 }

// CheckpointTrial runs one trial of the scenario up to the given
// workload barrier and returns the encoded world snapshot taken there.
// The barrier may be 0 (snapshot the freshly compiled world) through
// len(s.Workloads) (snapshot after everything ran). The snapshot's
// bytes are canonical: for a fixed (scenario, trial, barrier) they are
// identical at any worker count and any shard count >= 1, which is what
// the divergence bisector compares across arms.
func CheckpointTrial(ctx context.Context, s *Scenario, trial, barrier, shards int) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if trial < 0 || trial >= s.Trials {
		return nil, fmt.Errorf("scenario: trial %d out of range [0,%d)", trial, s.Trials)
	}
	if barrier < 0 || barrier > len(s.Workloads) {
		return nil, fmt.Errorf("scenario: barrier %d out of range [0,%d]", barrier, len(s.Workloads))
	}
	seed := TrialSeed(s.Seed, trial)
	var encoded []byte
	_, err := s.runWorkloads(ctx, seed, shards, nil, 0, barrier, func(w *simtest.World, done []workloadOut) error {
		partial := make([]TrialWorkload, 0, barrier)
		for _, res := range done[:barrier] {
			partial = append(partial, TrialWorkload{
				Caches:      res.caches,
				ProbesSent:  res.probesSent,
				ProbeErrors: res.probeErrors,
			})
		}
		app, err := json.Marshal(appState{
			Scenario: s.Name,
			Trial:    trial,
			Seed:     seed,
			Barrier:  barrier,
			Partial:  partial,
		})
		if err != nil {
			return fmt.Errorf("scenario: encoding checkpoint state: %w", err)
		}
		img, err := w.Snapshot(app)
		if err != nil {
			return err
		}
		encoded, err = worldstate.Encode(img)
		return err
	})
	if err != nil {
		return nil, err
	}
	return encoded, nil
}

// ResumeTrial decodes a snapshot produced by CheckpointTrial against the
// same scenario, rebuilds the trial's world, overlays the captured
// state, and runs the remaining workloads to completion. It returns the
// trial's full outcome — byte-identical to what an uninterrupted
// runTrial of the same trial produces — plus the trial index recorded
// in the snapshot.
func ResumeTrial(ctx context.Context, s *Scenario, snapshot []byte, shards int) (TrialDetail, int, error) {
	out, trial, err := s.resumeTrial(ctx, snapshot, shards)
	if err != nil {
		return TrialDetail{}, 0, err
	}
	d := TrialDetail{Cost: out.cost, Metrics: out.metrics}
	for _, wo := range out.workloads {
		d.Workloads = append(d.Workloads, TrialWorkload{
			Caches:      wo.caches,
			ProbesSent:  wo.probesSent,
			ProbeErrors: wo.probeErrors,
		})
	}
	return d, trial, nil
}

// resumeTrial is ResumeTrial in the runner's internal trialOut shape so
// RunCheckpointed can aggregate resumed trials exactly like runTrial's.
func (s *Scenario) resumeTrial(ctx context.Context, snapshot []byte, shards int) (trialOut, int, error) {
	if err := s.Validate(); err != nil {
		return trialOut{}, 0, err
	}
	img, err := worldstate.Decode(snapshot)
	if err != nil {
		return trialOut{}, 0, err
	}
	var app appState
	if err := json.Unmarshal(img.App, &app); err != nil {
		return trialOut{}, 0, fmt.Errorf("%w: scenario state: %w", worldstate.ErrCorrupt, err)
	}
	if app.Scenario != s.Name {
		return trialOut{}, 0, fmt.Errorf("%w: snapshot is of scenario %q, not %q", worldstate.ErrMismatch, app.Scenario, s.Name)
	}
	if app.Barrier < 0 || app.Barrier > len(s.Workloads) {
		return trialOut{}, 0, fmt.Errorf("%w: barrier %d out of range [0,%d]", worldstate.ErrMismatch, app.Barrier, len(s.Workloads))
	}
	if len(app.Partial) != app.Barrier {
		return trialOut{}, 0, fmt.Errorf("%w: %d partial outcomes for barrier %d", worldstate.ErrMismatch, len(app.Partial), app.Barrier)
	}
	if app.Trial < 0 || app.Trial >= s.Trials {
		return trialOut{}, 0, fmt.Errorf("%w: trial %d out of range [0,%d)", worldstate.ErrMismatch, app.Trial, s.Trials)
	}
	if want := TrialSeed(s.Seed, app.Trial); app.Seed != want {
		return trialOut{}, 0, fmt.Errorf("%w: trial %d seed %d, scenario derives %d", worldstate.ErrMismatch, app.Trial, app.Seed, want)
	}

	out, err := s.runWorkloads(ctx, app.Seed, shards, img, app.Barrier, len(s.Workloads), nil)
	if err != nil {
		return trialOut{}, 0, err
	}
	for i, p := range app.Partial {
		out.workloads[i] = workloadOut{
			caches:      p.Caches,
			probesSent:  p.ProbesSent,
			probeErrors: p.ProbeErrors,
		}
	}
	return out, app.Trial, nil
}

// RunCheckpointed executes the scenario with a checkpoint/restore
// round trip inside every trial: each trial runs to its midpoint
// barrier, snapshots the world, discards it, restores the snapshot into
// a freshly built world and finishes there. The report must be
// byte-identical to Run's — this is the conformance harness's way of
// proving a snapshot captures the complete live state.
func RunCheckpointed(ctx context.Context, s *Scenario, opts RunOptions) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	barrier := s.MidpointBarrier()
	trials, err := detpar.Map(ctx, s.Seed, s.Trials, opts.Workers,
		func(i int, rng *rand.Rand) (trialOut, error) {
			// rng is unused: the trial seed is re-derived inside
			// CheckpointTrial via TrialSeed, which draws the same stream.
			snap, err := CheckpointTrial(ctx, s, i, barrier, opts.Shards)
			if err != nil {
				return trialOut{}, err
			}
			out, trial, err := s.resumeTrial(ctx, snap, opts.Shards)
			if err != nil {
				return trialOut{}, err
			}
			if trial != i {
				return trialOut{}, fmt.Errorf("scenario: snapshot of trial %d resumed as trial %d", trial, i)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	report, _ := s.assemble(trials)
	return report, nil
}
