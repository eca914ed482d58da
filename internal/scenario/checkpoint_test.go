package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"dnscde/internal/worldstate"
)

// checkpointShardSweep is the shard axis for the round-trip sweep; the
// shards 0 spelling is exercised separately.
var checkpointShardSweep = []int{1, 4}

// TestCheckpointRoundTrip is the conformance lock for checkpoint/
// restore: every corpus scenario, run with a snapshot-restore round
// trip inside every trial (run to the midpoint barrier, snapshot,
// restore into a fresh world, finish there), must produce a final
// report byte-identical to the checked-in golden — across the full
// workers x shards sweep.
func TestCheckpointRoundTrip(t *testing.T) {
	corpus, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	workers := DefaultWorkerSweep
	shards := checkpointShardSweep
	if testing.Short() {
		workers = []int{1}
		shards = []int{1}
	}
	ctx := context.Background()
	for _, sc := range corpus {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want, err := os.ReadFile(GoldenPath(corpusDir, sc.Name))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			for _, sh := range shards {
				for _, wk := range workers {
					report, err := RunCheckpointed(ctx, sc, RunOptions{Workers: wk, Shards: sh})
					if err != nil {
						t.Fatalf("RunCheckpointed(workers=%d shards=%d): %v", wk, sh, err)
					}
					got, err := report.CanonicalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, got) {
						t.Errorf("workers=%d shards=%d: restored run drifted from golden: %s",
							wk, sh, firstDiff(want, got))
					}
				}
			}
		})
	}
}

// TestCheckpointRoundTripLegacy runs the round trip with the shards 0
// spelling, which once selected a separate single-scheduler world and now
// builds the one-lane world: its snapshot bytes must equal the shards=1
// snapshot's, and restore-then-run must reproduce the golden
// byte-for-byte.
func TestCheckpointRoundTripLegacy(t *testing.T) {
	sc, err := LoadFile(corpusDir + "/open-resolver-4" + ScenarioExt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(GoldenPath(corpusDir, sc.Name))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	zero, err := CheckpointTrial(ctx, sc, 0, sc.MidpointBarrier(), 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := CheckpointTrial(ctx, sc, 0, sc.MidpointBarrier(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, one) {
		t.Error("shards=0 snapshot differs from the shards=1 snapshot")
	}
	report, err := RunCheckpointed(ctx, sc, RunOptions{Workers: 1, Shards: 0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := report.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("shards=0 restored run drifted from golden: %s", firstDiff(want, got))
	}
}

// TestSnapshotBytesShardInvariant asserts the canonical property the
// divergence bisector relies on: for a fixed (scenario, trial, barrier)
// the encoded snapshot bytes are identical at shard counts 1 and 4.
func TestSnapshotBytesShardInvariant(t *testing.T) {
	corpus, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		corpus = corpus[:2]
	}
	ctx := context.Background()
	for _, sc := range corpus {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			barrier := sc.MidpointBarrier()
			a, err := CheckpointTrial(ctx, sc, 0, barrier, 1)
			if err != nil {
				t.Fatalf("CheckpointTrial(shards=1): %v", err)
			}
			b, err := CheckpointTrial(ctx, sc, 0, barrier, 4)
			if err != nil {
				t.Fatalf("CheckpointTrial(shards=4): %v", err)
			}
			if !bytes.Equal(a, b) {
				ia, errA := worldstate.Decode(a)
				ib, errB := worldstate.Decode(b)
				if errA != nil || errB != nil {
					t.Fatalf("snapshot bytes differ and decode failed: %v / %v", errA, errB)
				}
				t.Errorf("snapshot bytes differ across shard counts: %s", worldstate.Diff(ia, ib))
			}
		})
	}
}

// TestCheckpointTrialBarrierRange covers the degenerate barriers: 0
// (snapshot of the freshly compiled world) and len(workloads) (snapshot
// after everything ran) must both round-trip to the uninterrupted
// trial's outcome.
func TestCheckpointTrialBarrierRange(t *testing.T) {
	sc, err := LoadFile(corpusDir + "/open-resolver-4" + ScenarioExt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, details, err := RunDetailed(ctx, sc, RunOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, barrier := range []int{0, len(sc.Workloads)} {
		snap, err := CheckpointTrial(ctx, sc, 0, barrier, 1)
		if err != nil {
			t.Fatalf("CheckpointTrial(barrier=%d): %v", barrier, err)
		}
		detail, trial, err := ResumeTrial(ctx, sc, snap, 1)
		if err != nil {
			t.Fatalf("ResumeTrial(barrier=%d): %v", barrier, err)
		}
		if trial != 0 {
			t.Errorf("barrier %d: resumed trial %d, want 0", barrier, trial)
		}
		if len(detail.Workloads) != len(details[0].Workloads) {
			t.Fatalf("barrier %d: %d workload outcomes, want %d", barrier, len(detail.Workloads), len(details[0].Workloads))
		}
		for i, got := range detail.Workloads {
			if got != details[0].Workloads[i] {
				t.Errorf("barrier %d workload %d: resumed %+v, uninterrupted %+v",
					barrier, i, got, details[0].Workloads[i])
			}
		}
	}
}

// TestResumeTrialMismatch asserts a snapshot cannot be resumed under a
// different scenario: ResumeTrial must fail with ErrMismatch, not
// silently produce wrong results.
func TestResumeTrialMismatch(t *testing.T) {
	corpus, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	snap, err := CheckpointTrial(ctx, corpus[0], 0, corpus[0].MidpointBarrier(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeTrial(ctx, corpus[1], snap, 1); !errors.Is(err, worldstate.ErrMismatch) {
		t.Errorf("resuming %s snapshot under %s: err = %v, want ErrMismatch", corpus[0].Name, corpus[1].Name, err)
	}
}

// TestResumeTrialCorrupt asserts truncated snapshot bytes surface as
// ErrCorrupt from the resume path.
func TestResumeTrialCorrupt(t *testing.T) {
	sc, err := LoadFile(corpusDir + "/open-resolver-1" + ScenarioExt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	snap, err := CheckpointTrial(ctx, sc, 0, sc.MidpointBarrier(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeTrial(ctx, sc, snap[:len(snap)/2], 1); !errors.Is(err, worldstate.ErrCorrupt) {
		t.Errorf("truncated snapshot: err = %v, want ErrCorrupt", err)
	}
}
