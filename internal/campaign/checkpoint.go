package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dnscde/internal/scenario"
)

// checkpointVersion is the campaign checkpoint file format version.
const checkpointVersion = 1

// CheckpointExt is the extension of campaign checkpoint files, written
// next to each campaign's JSONL result file in the engine's results
// directory.
const CheckpointExt = ".ckpt"

// checkpointFile is the durable record of a campaign's progress: the
// spec (every run is a pure function of it and the run index), the
// emitter's durable cursor, and the result file's byte offset at that
// cursor. A process restarted with the same results directory resumes
// from it and the result stream continues byte-identically.
type checkpointFile struct {
	Version   int       `json:"version"`
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Spec      string    `json:"spec"`
	Submitted time.Time `json:"submitted"`
	// Next is the first run index not yet durably emitted; Completed,
	// Failed and Retries describe exactly the runs below Next.
	Next      int `json:"next"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Retries   int `json:"retries"`
	// Rows and Offset are the result file's row count and byte length
	// for the durable run prefix; resume truncates the file to Offset,
	// discarding any rows a dying process appended past its last flush.
	Rows    int64  `json:"rows"`
	Offset  int64  `json:"offset"`
	LastErr string `json:"last_err,omitempty"`
}

// ckptPath returns the campaign's checkpoint file path.
func (c *Campaign) ckptPath() string {
	return filepath.Join(c.engine.dir, c.id+CheckpointExt)
}

// writeCheckpoint persists the campaign's durable cursor. It is invoked
// by the ordered emitter with its lock held (so no rows can land between
// the flush and the recorded cursor) and once at submit/resume time with
// the initial cursor. Checkpoint I/O errors are recorded on the campaign
// rather than failing the run: a missing checkpoint only costs replayed
// work after a crash.
func (c *Campaign) writeCheckpoint(cur cursorState) {
	written, err := c.sink.Flush()
	if err != nil {
		return // the sink error surfaces through the run path
	}
	ck := checkpointFile{
		Version:   checkpointVersion,
		ID:        c.id,
		Name:      c.name,
		Spec:      c.text,
		Submitted: c.submitted,
		Next:      cur.Next,
		Completed: cur.Completed,
		Failed:    cur.Failed,
		Retries:   cur.Retries,
		Rows:      c.rowsBase + c.sink.Rows(),
		Offset:    c.fileBase + written,
		LastErr:   cur.LastErr,
	}
	b, err := json.MarshalIndent(&ck, "", "  ")
	if err == nil {
		err = writeFileAtomic(c.ckptPath(), b)
	}
	if err != nil {
		c.mu.Lock()
		if c.lastErr == "" {
			c.lastErr = fmt.Sprintf("checkpoint: %v", err)
		}
		c.mu.Unlock()
	}
}

// removeCheckpoint deletes the campaign's checkpoint file; called when
// the campaign settles for good (done, failed, or explicitly cancelled).
func (c *Campaign) removeCheckpoint() {
	if err := os.Remove(c.ckptPath()); err != nil && !os.IsNotExist(err) {
		c.mu.Lock()
		if c.lastErr == "" {
			c.lastErr = fmt.Sprintf("checkpoint: %v", err)
		}
		c.mu.Unlock()
	}
}

// writeFileAtomic writes data via a temp file + rename so a checkpoint
// is always either the old complete record or the new complete record.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Resume scans the engine's results directory for campaign checkpoints
// left by a previous process (SIGTERM drain, crash) and restarts each
// interrupted campaign from its durable cursor: the result file is
// truncated to the checkpointed offset and reopened for append, the
// scheduler starts at the first non-durable run, and because every run
// is a pure function of (spec, run index) the completed file ends up
// byte-identical to an uninterrupted campaign's. Call it once, after
// NewEngine and before serving traffic. It returns the resumed
// campaigns.
func (e *Engine) Resume() ([]*Campaign, error) {
	paths, err := filepath.Glob(filepath.Join(e.dir, "*"+CheckpointExt))
	if err != nil {
		return nil, fmt.Errorf("campaign: scanning checkpoints: %w", err)
	}
	sort.Strings(paths)
	resumed := make([]*Campaign, 0, len(paths))
	for _, p := range paths {
		c, err := e.resumeOne(p)
		if err != nil {
			return resumed, fmt.Errorf("campaign: resuming %s: %w", p, err)
		}
		resumed = append(resumed, c)
	}
	return resumed, nil
}

// resumeOne restarts one campaign from its checkpoint file.
func (e *Engine) resumeOne(path string) (*Campaign, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck checkpointFile
	if err := json.Unmarshal(b, &ck); err != nil {
		return nil, fmt.Errorf("parsing checkpoint: %w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint version %d, this build reads %d", ck.Version, checkpointVersion)
	}
	sc, err := scenario.ParseString(ck.Spec)
	if err != nil {
		return nil, fmt.Errorf("re-parsing spec: %w", err)
	}
	if ticks := campaignHeader(sc).Ticks; ck.Next < 0 || ck.Next > ticks || ck.Offset < 0 {
		return nil, fmt.Errorf("checkpoint cursor out of range (next=%d ticks=%d offset=%d)", ck.Next, ticks, ck.Offset)
	}

	resultPath := filepath.Join(e.dir, ck.ID+".jsonl")
	file, err := os.OpenFile(resultPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("reopening result file: %w", err)
	}
	fi, err := file.Stat()
	if err == nil && fi.Size() < ck.Offset {
		err = fmt.Errorf("result file is %d bytes, checkpoint expects >= %d", fi.Size(), ck.Offset)
	}
	if err == nil {
		// Drop anything appended past the last durable flush, then append
		// from exactly the checkpointed offset.
		if err = file.Truncate(ck.Offset); err == nil {
			_, err = file.Seek(ck.Offset, io.SeekStart)
		}
	}
	if err != nil {
		file.Close()
		return nil, err
	}

	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		file.Close()
		return nil, ErrDraining
	}
	if _, dup := e.campaigns[ck.ID]; dup {
		e.mu.Unlock()
		file.Close()
		return nil, fmt.Errorf("campaign %s already registered", ck.ID)
	}
	// Keep fresh submissions from colliding with resumed IDs.
	var seq int
	if _, err := fmt.Sscanf(ck.ID, "c%d-", &seq); err == nil && seq > e.nextID {
		e.nextID = seq
	}
	c := e.addCampaignLocked(sc, ck.ID, ck.Spec, ck.Submitted, resultPath, file, cursorState{
		Next:      ck.Next,
		Completed: ck.Completed,
		Failed:    ck.Failed,
		Retries:   ck.Retries,
		LastErr:   ck.LastErr,
	})
	c.rowsBase, c.fileBase = ck.Rows, ck.Offset
	e.mu.Unlock()

	go c.loop()
	return c, nil
}
