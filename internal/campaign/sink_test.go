package campaign

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestSinkStreamsRowsInOrder(t *testing.T) {
	// Acceptance bar: ≥100k rows through the chunked parallel pipeline
	// with bounded buffering and append-order output.
	const n = 120000
	var buf bytes.Buffer
	s := NewSink(&buf, SinkOptions{Encoders: 4})
	for i := 0; i < n; i++ {
		if err := s.Append(struct {
			N int `json:"n"`
		}{i}); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := s.Rows(); got != n {
		t.Errorf("Rows = %d, want %d", got, n)
	}
	sc := bufio.NewScanner(&buf)
	i := 0
	for sc.Scan() {
		if want := fmt.Sprintf(`{"n":%d}`, i); sc.Text() != want {
			t.Fatalf("line %d = %q, want %q", i, sc.Text(), want)
		}
		i++
	}
	if i != n {
		t.Errorf("lines = %d, want %d", i, n)
	}
	// Bounded buffering: the assembler can park at most the pipeline's
	// in-flight window — jobs queue + busy encoders + encoded queue,
	// each bounded by the encoder count — never the whole stream.
	if maxChunks := 3*4 + 1; s.MaxPending() > maxChunks {
		t.Errorf("MaxPending = %d chunks, want <= %d", s.MaxPending(), maxChunks)
	}
}

func TestSinkFlushesPartialChunk(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, SinkOptions{Encoders: 2})
	for i := 0; i < 3; i++ {
		if err := s.Append(Row{Campaign: "c", Run: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Errorf("lines = %d, want 3", got)
	}
}

func TestSinkAppendAfterClose(t *testing.T) {
	s := NewSink(&bytes.Buffer{}, SinkOptions{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Row{}); err == nil {
		t.Error("Append after Close succeeded")
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// failWriter errors after the first write.
type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestSinkSurfacesWriteError(t *testing.T) {
	s := NewSink(&failWriter{}, SinkOptions{Encoders: 2})
	for i := 0; i < 16*chunkRows; i++ {
		// Append keeps accepting (errors surface asynchronously); the
		// pipeline must drain rather than deadlock.
		_ = s.Append(Row{Run: i}) //nolint — error checked at Close
	}
	err := s.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close = %v, want disk-full write error", err)
	}
}

func TestOrderedEmitterRestoresRunOrder(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, SinkOptions{Encoders: 2})
	e := &orderedEmitter{sink: s}
	// Runs finish out of order; run 1 failed (nil rows) but still
	// advances the cursor.
	if err := e.emit(2, runOutcome{rows: []Row{{Run: 2, Trial: 0}}, completed: true}); err != nil {
		t.Fatal(err)
	}
	if err := e.emit(1, runOutcome{errText: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := e.emit(0, runOutcome{rows: []Row{{Run: 0, Trial: 0}, {Run: 0, Trial: 1}}, completed: true}); err != nil {
		t.Fatal(err)
	}
	if e.cur.Next != 3 || e.cur.Completed != 2 || e.cur.Failed != 1 || e.cur.LastErr != "boom" {
		t.Errorf("cursor = %+v, want next=3 completed=2 failed=1 lastErr=boom", e.cur)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var runs []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		runs = append(runs, line)
	}
	if len(runs) != 3 {
		t.Fatalf("rows = %d, want 3: %q", len(runs), runs)
	}
	for i, want := range []string{`"run":0,"trial":0`, `"run":0,"trial":1`, `"run":2`} {
		if !strings.Contains(runs[i], want) {
			t.Errorf("row %d = %s, want it to contain %s", i, runs[i], want)
		}
	}
}
