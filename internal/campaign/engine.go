package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dnscde/internal/clock"
	"dnscde/internal/metrics"
	"dnscde/internal/scenario"
)

// Engine errors the HTTP layer maps to status codes.
var (
	ErrNotFound = errors.New("campaign: no such campaign")
	ErrDraining = errors.New("campaign: engine is draining")
)

// Options configures an Engine.
type Options struct {
	// Workers is the per-run trial fan-out (scenario.RunOptions.Workers);
	// <= 0 uses GOMAXPROCS.
	Workers int
	// Shards is the event-loop lane count each run's world is built with
	// (scenario.RunOptions.Shards); values below 1 mean one lane. Results
	// are byte-identical at any value.
	Shards int
	// Dir is where campaign JSONL result files live; empty creates a
	// fresh temporary directory.
	Dir string
	// Service, when non-nil, receives every run's accounting snapshot
	// merged under the "campaigns" label — the service-wide roll-up the
	// /metrics endpoint exports.
	Service *metrics.Registry
	// Clock stamps submission times; nil uses the wall clock.
	Clock clock.Clock
	// Sink tunes the per-campaign result pipelines.
	Sink SinkOptions
}

// Engine owns every campaign of a cdeserver process: submission,
// scheduling, progress and drain. All methods are safe for concurrent
// use.
type Engine struct {
	opts Options
	clk  clock.Clock
	dir  string

	baseCtx    context.Context
	baseCancel context.CancelFunc
	drainCh    chan struct{}
	wg         sync.WaitGroup

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string
	nextID    int
	draining  bool
}

// NewEngine creates an engine writing result files under opts.Dir.
func NewEngine(opts Options) (*Engine, error) {
	dir := opts.Dir
	var err error
	if dir == "" {
		dir, err = os.MkdirTemp("", "cde-campaigns-")
		if err != nil {
			return nil, fmt.Errorf("campaign: results dir: %w", err)
		}
	} else if err = os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: results dir: %w", err)
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Engine{
		opts:       opts,
		clk:        clk,
		dir:        dir,
		baseCtx:    ctx,
		baseCancel: cancel,
		drainCh:    make(chan struct{}),
		campaigns:  make(map[string]*Campaign),
	}, nil
}

// Dir returns the engine's results directory.
func (e *Engine) Dir() string { return e.dir }

// Submit parses and validates a campaign spec (a scenario file; a
// missing campaign stanza means a single immediate run), assigns an ID,
// opens its result sink and starts its scheduler loop.
func (e *Engine) Submit(text string) (*Campaign, error) {
	sc, err := scenario.ParseString(text)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	e.nextID++
	id := fmt.Sprintf("c%04d-%s", e.nextID, sc.Name)
	path := filepath.Join(e.dir, id+".jsonl")
	file, err := os.Create(path)
	if err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("campaign: creating result file: %w", err)
	}
	c := e.addCampaignLocked(sc, id, sc.Format(), e.clk.Now(), path, file, cursorState{})
	e.mu.Unlock()

	// Persist the initial cursor so a shutdown before the first run still
	// leaves a resumable campaign behind.
	c.writeCheckpoint(cursorState{})
	go c.loop()
	return c, nil
}

// campaignHeader returns sc's campaign stanza; a spec without one is a
// single immediate run.
func campaignHeader(sc *scenario.Scenario) scenario.CampaignDef {
	if sc.Campaign != nil {
		return *sc.Campaign
	}
	return scenario.CampaignDef{Ticks: 1, MaxConcurrent: 1}
}

// addCampaignLocked builds a campaign — new, or resumed from cursor cur —
// whose results stream through a fresh sink into file, wires the
// emitter's checkpoint hook and registers it with the engine. The
// campaign's progress and first scheduled run start from cur. The caller
// holds e.mu and starts the campaign's loop after releasing it.
func (e *Engine) addCampaignLocked(sc *scenario.Scenario, id, text string, submitted time.Time, path string, file *os.File, cur cursorState) *Campaign {
	ctx, cancel := context.WithCancel(e.baseCtx)
	sink := NewSink(file, e.opts.Sink)
	c := &Campaign{
		id:        id,
		name:      sc.Name,
		header:    campaignHeader(sc),
		text:      text,
		submitted: submitted,
		path:      path,
		engine:    e,
		ctx:       ctx,
		cancel:    cancel,
		reg:       metrics.New(),
		sink:      sink,
		file:      file,
		done:      make(chan struct{}),
		emitter:   &orderedEmitter{sink: sink, cur: cur},
		startRun:  cur.Next,

		state:       StatePending,
		completed:   cur.Completed,
		failed:      cur.Failed,
		retriesUsed: cur.Retries,
		lastErr:     cur.LastErr,
	}
	c.emitter.onAdvance = c.writeCheckpoint
	e.campaigns[id] = c
	e.order = append(e.order, id)
	e.wg.Add(1)
	return c
}

// Get returns a campaign by ID.
func (e *Engine) Get(id string) (*Campaign, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.campaigns[id]
	return c, ok
}

// List returns every campaign in submission order.
func (e *Engine) List() []*Campaign {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Campaign, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.campaigns[id])
	}
	return out
}

// Cancel stops a campaign: no further ticks launch and in-flight runs
// are interrupted. An explicit cancel abandons the campaign for good —
// its checkpoint is deleted, so a later process will not resurrect it.
// Cancelling a finished campaign is a no-op.
func (e *Engine) Cancel(id string) (*Campaign, error) {
	c, ok := e.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	c.mu.Lock()
	c.explicitCancel = true
	c.mu.Unlock()
	c.cancel()
	return c, nil
}

// Drain gracefully winds the engine down: new submissions are refused,
// no new ticks launch, and in-flight runs finish. If ctx expires first,
// in-flight runs are cancelled and Drain still waits for every
// campaign loop to flush its sink before returning ctx's error.
func (e *Engine) Drain(ctx context.Context) error {
	e.beginDrain()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close hard-cancels every campaign and waits for the loops to finish.
func (e *Engine) Close() {
	e.beginDrain()
	e.baseCancel()
	e.wg.Wait()
}

// beginDrain flips the engine into draining mode exactly once.
func (e *Engine) beginDrain() {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.drainCh)
	}
	e.mu.Unlock()
}
