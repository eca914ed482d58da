package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// SinkOptions tunes the parallel JSONL sink; zero values pick defaults.
type SinkOptions struct {
	// Encoders is the number of parallel chunk-encoding workers
	// (default 4).
	Encoders int
}

const (
	// defaultEncoders is the default for SinkOptions.Encoders.
	defaultEncoders = 4
	// chunkRows is how many rows one chunk batches before it is handed
	// to an encoder.
	chunkRows = 512
)

// chunkJob is a sealed batch of rows awaiting encoding.
type chunkJob struct {
	seq  int
	rows []any
}

// encodedChunk is one chunk's JSONL bytes, tagged with its sequence so
// the assembler can restore append order.
type encodedChunk struct {
	seq  int
	data []byte
}

// Sink streams JSONL rows to an io.Writer through a chunked parallel
// pipeline: Append batches rows into fixed-size chunks, a pool of
// encoder workers marshals whole chunks concurrently, and a single
// assembler goroutine writes the encoded chunks back in sequence order.
// The shape follows gvisor's checkpoint parallel-writer: producers and
// encoders never touch the output stream, and the assembler holds at
// most a bounded window of out-of-order chunks, so a million-row
// campaign streams through a constant-size buffer instead of
// accumulating in memory.
//
// Output order is exactly Append order. Append is safe for concurrent
// use, but concurrent appenders get an arbitrary interleaving — callers
// that need a deterministic stream (the campaign runner) serialize
// appends through an orderedEmitter.
type Sink struct {
	w io.Writer

	mu     sync.Mutex // guards cur, seq, closed
	cur    []any
	seq    int
	closed bool

	jobs    chan chunkJob
	encoded chan encodedChunk
	encWG   sync.WaitGroup
	asmDone chan struct{}
	// inflight caps chunks dispatched but not yet written through, making
	// the assembler's out-of-order window structurally bounded instead of
	// timing-dependent: one slot is taken before a chunk enters jobs and
	// released only when the assembler has written it (in order).
	inflight chan struct{}

	// flushMu/flushCond track how many chunks the assembler has fully
	// processed, so Flush can wait for a precise drain point.
	flushMu    sync.Mutex
	flushCond  *sync.Cond
	chunksDone int

	rows       atomic.Int64
	written    atomic.Int64
	maxPending atomic.Int64

	errMu sync.Mutex
	err   error
}

// NewSink starts the pipeline over w. The caller owns w: Close flushes
// and stops the pipeline but does not close w.
func NewSink(w io.Writer, opts SinkOptions) *Sink {
	if opts.Encoders <= 0 {
		opts.Encoders = defaultEncoders
	}
	s := &Sink{
		w:        w,
		jobs:     make(chan chunkJob, opts.Encoders),
		encoded:  make(chan encodedChunk, opts.Encoders),
		asmDone:  make(chan struct{}),
		inflight: make(chan struct{}, 3*opts.Encoders),
	}
	s.flushCond = sync.NewCond(&s.flushMu)
	s.encWG.Add(opts.Encoders)
	for i := 0; i < opts.Encoders; i++ {
		go s.encodeLoop()
	}
	go s.assemble()
	return s
}

// Append queues one row. It blocks when the pipeline is saturated — that
// backpressure is what bounds the sink's memory — and reports the first
// pipeline error once one occurred.
func (s *Sink) Append(v any) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("campaign: append to closed sink")
	}
	if s.cur == nil {
		s.cur = make([]any, 0, chunkRows)
	}
	s.cur = append(s.cur, v)
	var job chunkJob
	dispatch := false
	if len(s.cur) >= chunkRows {
		job = chunkJob{seq: s.seq, rows: s.cur}
		s.seq++
		s.cur = nil
		dispatch = true
	}
	s.mu.Unlock()
	if dispatch {
		s.inflight <- struct{}{}
		s.jobs <- job
	}
	s.rows.Add(1)
	return s.Err()
}

// Rows returns the number of rows appended so far.
func (s *Sink) Rows() int64 { return s.rows.Load() }

// Flush seals the partial chunk, waits until every row appended so far
// has been written through to the underlying writer, and returns the
// total bytes successfully written since the sink was created. The
// campaign checkpointer calls it before recording a durable result-file
// offset; the sink stays usable afterwards. Flushing a closed sink just
// reports the totals.
func (s *Sink) Flush() (int64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.written.Load(), s.Err()
	}
	var job chunkJob
	dispatch := false
	if len(s.cur) > 0 {
		job = chunkJob{seq: s.seq, rows: s.cur}
		s.seq++
		s.cur = nil
		dispatch = true
	}
	target := s.seq
	s.mu.Unlock()
	if dispatch {
		s.inflight <- struct{}{}
		s.jobs <- job
	}
	s.flushMu.Lock()
	for s.chunksDone < target {
		s.flushCond.Wait()
	}
	s.flushMu.Unlock()
	return s.written.Load(), s.Err()
}

// MaxPending reports the largest number of out-of-order chunks the
// assembler ever held — the sink's buffering high-water mark, asserted
// bounded by the tests.
func (s *Sink) MaxPending() int { return int(s.maxPending.Load()) }

// Err returns the first pipeline error (encode or write), if any.
func (s *Sink) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// fail records the first pipeline error.
func (s *Sink) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// Close flushes the partial chunk, drains the pipeline and returns the
// first error. The sink cannot be used after Close.
func (s *Sink) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.Err()
	}
	s.closed = true
	var job chunkJob
	dispatch := false
	if len(s.cur) > 0 {
		job = chunkJob{seq: s.seq, rows: s.cur}
		s.seq++
		s.cur = nil
		dispatch = true
	}
	s.mu.Unlock()
	if dispatch {
		s.inflight <- struct{}{}
		s.jobs <- job
	}
	close(s.jobs)
	s.encWG.Wait()
	close(s.encoded)
	<-s.asmDone
	return s.Err()
}

// encodeLoop marshals whole chunks to JSONL bytes. A chunk is always
// forwarded — even after a marshal error — so the assembler's sequence
// stays contiguous and Close never deadlocks.
func (s *Sink) encodeLoop() {
	defer s.encWG.Done()
	for job := range s.jobs {
		var buf bytes.Buffer
		for _, v := range job.rows {
			b, err := json.Marshal(v)
			if err != nil {
				s.fail(fmt.Errorf("campaign: encoding result row: %w", err))
				break
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
		s.encoded <- encodedChunk{seq: job.seq, data: buf.Bytes()}
	}
}

// assemble writes encoded chunks in sequence order, holding early
// arrivals in a pending window bounded by the encoder count.
func (s *Sink) assemble() {
	defer close(s.asmDone)
	pending := make(map[int][]byte)
	next := 0
	for c := range s.encoded {
		pending[c.seq] = c.data
		if n := int64(len(pending)); n > s.maxPending.Load() {
			s.maxPending.Store(n)
		}
		for {
			data, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if s.Err() == nil {
				if n, err := s.w.Write(data); err != nil {
					s.written.Add(int64(n))
					s.fail(fmt.Errorf("campaign: sink write: %w", err))
				} else {
					s.written.Add(int64(n))
				}
			}
			s.flushMu.Lock()
			s.chunksDone = next
			s.flushCond.Broadcast()
			s.flushMu.Unlock()
			<-s.inflight
		}
	}
}

// runOutcome is one run's settled result handed to the ordered emitter:
// its rows (nil for a failed run), whether it completed, and the retries
// it consumed. The emitter folds outcomes into its durable cursor state
// as the cursor passes them.
type runOutcome struct {
	rows      []Row
	completed bool
	retries   int
	errText   string
}

// cursorState is the emitter's durable prefix: every run below Next has
// emitted (rows appended to the sink), and the counters describe exactly
// those runs. This is what a campaign checkpoint records — restart with
// the same cursor state and the same spec, and the result stream
// continues byte-identically.
type cursorState struct {
	Next      int
	Completed int
	Failed    int
	Retries   int
	LastErr   string
}

// orderedEmitter serializes per-run row batches into the sink in run
// order: a run that finishes early parks its outcome until every earlier
// run has emitted. The window is bounded by the campaign's
// max-concurrent budget, so parking cannot grow without bound.
type orderedEmitter struct {
	sink *Sink
	// onAdvance, when set, is invoked with the new cursor state after the
	// cursor moves — while the emitter lock is held, so no row can be
	// appended between the sink flush the hook performs and the cursor it
	// records. That lock-step is what makes a checkpoint's file offset
	// exactly the byte length of the durable run prefix.
	onAdvance func(cursorState)

	mu      sync.Mutex
	cur     cursorState
	pending map[int]runOutcome
}

// emit hands over run's outcome. Each scheduled run emits at most once;
// a run interrupted by cancellation never emits, freezing the cursor so
// a later resume re-executes it.
func (e *orderedEmitter) emit(run int, o runOutcome) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pending == nil {
		e.pending = make(map[int]runOutcome)
	}
	e.pending[run] = o
	var firstErr error
	advanced := false
	for {
		out, ok := e.pending[e.cur.Next]
		if !ok {
			break
		}
		delete(e.pending, e.cur.Next)
		e.cur.Next++
		advanced = true
		if out.completed {
			e.cur.Completed++
		} else {
			e.cur.Failed++
			if out.errText != "" {
				e.cur.LastErr = out.errText
			}
		}
		e.cur.Retries += out.retries
		for i := range out.rows {
			if err := e.sink.Append(&out.rows[i]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if advanced && e.onAdvance != nil {
		e.onAdvance(e.cur)
	}
	return firstErr
}
