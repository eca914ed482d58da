package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// resumeSpec is a campaign whose launch interval leaves a wide window
// to interrupt it between runs: 3 ticks, one at a time, 300ms apart.
const resumeSpec = `$SCENARIO camp-resume
$SEED 11
$TRIALS 2

campaign (
    ticks 3
    max-concurrent 1
    interval 300ms
)

platform target (
    caches 3
)

workload direct (
    queries 8
)
`

// TestEngineResumeContinuesByteIdentically is the campaign-resume e2e
// check: run a campaign partway, drain the engine (the SIGTERM path),
// resume it in a fresh engine over the same results directory, and the
// completed result file must be byte-identical to an uninterrupted
// campaign's.
func TestEngineResumeContinuesByteIdentically(t *testing.T) {
	// Uninterrupted baseline in its own directory.
	ea, err := NewEngine(Options{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ea.Close()
	ca, err := ea.Submit(resumeSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, ca)
	if p := ca.Progress(); p.State != StateDone {
		t.Fatalf("baseline state = %s (error %q)", p.State, p.Error)
	}
	baseline, err := os.ReadFile(ca.Path())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: drain after the first run completes, inside the
	// launch-interval window.
	dir := t.TempDir()
	eb, err := NewEngine(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := eb.Submit(resumeSpec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for cb.Progress().Completed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("first run never completed: %+v", cb.Progress())
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := eb.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	pb := cb.Progress()
	if pb.State != StateCancelled || pb.Completed >= 3 {
		t.Fatalf("interrupted campaign = %+v, want cancelled with < 3 completed", pb)
	}
	ckpt := filepath.Join(dir, cb.ID()+CheckpointExt)
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain did not keep the checkpoint: %v", err)
	}
	partial, err := os.ReadFile(cb.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) == 0 || len(partial) >= len(baseline) {
		t.Fatalf("partial result file is %d bytes, want (0, %d)", len(partial), len(baseline))
	}

	// Resume in a fresh engine over the same directory.
	ec, err := NewEngine(Options{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	resumed, err := ec.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if len(resumed) != 1 || resumed[0].ID() != cb.ID() {
		t.Fatalf("resumed %d campaigns (%v), want exactly %s", len(resumed), resumed, cb.ID())
	}
	waitCampaign(t, resumed[0])
	p := resumed[0].Progress()
	if p.State != StateDone || p.Completed != 3 || p.Failed != 0 {
		t.Fatalf("resumed campaign = %+v, want done 3/0", p)
	}
	got, err := os.ReadFile(resumed[0].Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, baseline) {
		t.Errorf("resumed result file differs from uninterrupted run:\n got: %s\nwant: %s", got, baseline)
	}
	if p.Rows != ca.Progress().Rows {
		t.Errorf("resumed rows = %d, baseline %d", p.Rows, ca.Progress().Rows)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint survived campaign completion: %v", err)
	}

	// Fresh submissions must not collide with resumed IDs.
	extra, err := ec.Submit(smokeSpec)
	if err != nil {
		t.Fatal(err)
	}
	if extra.ID() == resumed[0].ID() {
		t.Errorf("ID collision after resume: %s", extra.ID())
	}
	waitCampaign(t, extra)
}

// TestSubmitWritesInitialCheckpoint asserts a campaign is resumable the
// moment Submit returns, and that an explicit Cancel abandons it —
// checkpoint deleted, nothing for a later Resume to pick up.
func TestSubmitWritesInitialCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spec := strings.Replace(smokeSpec, "ticks 3", "ticks 500\n    interval 1h", 1)
	c, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, c.ID()+CheckpointExt)
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint right after Submit: %v", err)
	}
	if _, err := e.Cancel(c.ID()); err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, c)
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("explicit cancel kept the checkpoint: %v", err)
	}
	if got, err := e.Resume(); err != nil || len(got) != 0 {
		t.Errorf("Resume after cancel = %v campaigns, err %v; want none", len(got), err)
	}
}

// TestResumeRejectsDamagedCheckpoint covers the corrupt-checkpoint
// paths: unparseable JSON and a result file shorter than the recorded
// offset must both fail loudly instead of silently rerunning.
func TestResumeRejectsDamagedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "c0001-x"+CheckpointExt), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Resume(); err == nil {
		t.Error("Resume accepted an unparseable checkpoint")
	}

	dir2 := t.TempDir()
	ck := `{"version":1,"id":"c0001-camp-smoke","name":"camp-smoke","spec":` +
		jsonString(smokeSpec) + `,"next":1,"completed":1,"rows":2,"offset":4096}`
	if err := os.WriteFile(filepath.Join(dir2, "c0001-camp-smoke"+CheckpointExt), []byte(ck), 0o644); err != nil {
		t.Fatal(err)
	}
	// Result file much shorter than the checkpoint's offset.
	if err := os.WriteFile(filepath.Join(dir2, "c0001-camp-smoke.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(Options{Dir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, err := e2.Resume(); err == nil {
		t.Error("Resume accepted a checkpoint pointing past the result file")
	}
}

// jsonString marshals s as a JSON string literal for fixture building.
func jsonString(s string) string {
	b := new(strings.Builder)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// TestSinkFlushReportsExactOffsets locks Flush's contract: after Flush
// returns, every appended row is on the writer and the returned byte
// count equals the writer's length — the invariant campaign checkpoints
// record as Offset.
func TestSinkFlushReportsExactOffsets(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, SinkOptions{Encoders: 3})
	total := 0
	// Flushes land mid-chunk and after whole chunks were dispatched.
	for i := 0; i < 10*chunkRows; i++ {
		if err := s.Append(Row{Run: i}); err != nil {
			t.Fatal(err)
		}
		total++
		if i%(3*chunkRows/2) == 0 {
			written, err := s.Flush()
			if err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if written != int64(buf.Len()) {
				t.Fatalf("Flush reported %d bytes, writer holds %d", written, buf.Len())
			}
			lines := strings.Count(buf.String(), "\n")
			if lines != total {
				t.Fatalf("after Flush: %d rows on writer, appended %d", lines, total)
			}
		}
	}
	// The sink keeps accepting rows after a flush.
	if err := s.Append(Row{Run: 99}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if written, _ := s.Flush(); written != int64(buf.Len()) {
		t.Errorf("Flush after Close = %d, want %d", written, buf.Len())
	}
}
