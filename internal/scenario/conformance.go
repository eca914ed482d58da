package scenario

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DefaultWorkerSweep is the conformance worker sweep: every scenario
// must produce byte-identical canonical reports at each of these worker
// counts before it is compared against its golden.
var DefaultWorkerSweep = []int{1, 8}

// DefaultShardSweep is the conformance shard sweep: worlds with that many
// event-loop lanes. Every scenario must produce byte-identical reports
// across the whole workers x shards cross product (DESIGN.md §12).
var DefaultShardSweep = []int{1, 2, 8}

// ScenarioExt is the corpus file extension.
const ScenarioExt = ".scn"

// LoadFile parses and validates one scenario file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	sc, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// LoadDir loads every *.scn file in dir, sorted by filename, and
// rejects duplicate scenario names (golden reports are keyed by name).
func LoadDir(dir string) ([]*Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+ScenarioExt))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *%s files in %s", ScenarioExt, dir)
	}
	sort.Strings(paths)
	seen := map[string]string{}
	out := make([]*Scenario, 0, len(paths))
	for _, p := range paths {
		sc, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[sc.Name]; dup {
			return nil, fmt.Errorf("scenario: %s and %s both declare $SCENARIO %s", prev, p, sc.Name)
		}
		seen[sc.Name] = p
		out = append(out, sc)
	}
	return out, nil
}

// GoldenPath returns where the golden report for a scenario name lives
// relative to the corpus directory.
func GoldenPath(dir, name string) string {
	return filepath.Join(dir, "golden", name+".json")
}

// ConformanceResult is the outcome of one scenario's conformance check.
type ConformanceResult struct {
	// Scenario is the $SCENARIO name; Workers and Shards the sweep axes
	// it ran the full cross product of.
	Scenario string
	Workers  []int
	Shards   []int
	// Report is the canonical JSON produced (at every sweep point, once
	// Invariant holds).
	Report []byte
	// Invariant reports byte-identical output across the whole
	// workers x shards sweep.
	Invariant bool
	// GoldenMatch reports byte equality with the checked-in golden.
	// Updated means the golden was (re)written instead of compared.
	GoldenMatch bool
	Updated     bool
	// Detail carries a human-readable mismatch description.
	Detail string
}

// Passed reports whether the scenario conforms (or was just updated).
func (r ConformanceResult) Passed() bool {
	return r.Invariant && (r.GoldenMatch || r.Updated)
}

// RunConformance executes every scenario of the corpus in dir at the
// full cross product of the workers and shards sweeps (nil axes use
// DefaultWorkerSweep / DefaultShardSweep), asserts the canonical reports
// are byte-identical across the sweep, and diffs them against the
// checked-in goldens under dir/golden. With update set the goldens are
// regenerated instead of compared — the regeneration is itself
// deterministic, so a clean tree stays clean.
func RunConformance(ctx context.Context, dir string, workers, shards []int, update bool) ([]ConformanceResult, error) {
	if len(workers) == 0 {
		workers = DefaultWorkerSweep
	}
	if len(shards) == 0 {
		shards = DefaultShardSweep
	}
	corpus, err := LoadDir(dir)
	if err != nil {
		return nil, err
	}
	results := make([]ConformanceResult, 0, len(corpus))
	for _, sc := range corpus {
		res, err := conform(ctx, sc, dir, workers, shards, update)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// conform checks one scenario.
func conform(ctx context.Context, sc *Scenario, dir string, workers, shards []int, update bool) (ConformanceResult, error) {
	res := ConformanceResult{
		Scenario: sc.Name,
		Workers:  append([]int(nil), workers...),
		Shards:   append([]int(nil), shards...),
	}
	var canonical []byte
	for _, sh := range shards {
		for _, wk := range workers {
			report, err := Run(ctx, sc, RunOptions{Workers: wk, Shards: sh})
			if err != nil {
				return res, fmt.Errorf("scenario %s (workers=%d shards=%d): %w", sc.Name, wk, sh, err)
			}
			b, err := report.CanonicalJSON()
			if err != nil {
				return res, err
			}
			if canonical == nil {
				canonical = b
				continue
			}
			if !bytes.Equal(canonical, b) {
				res.Detail = fmt.Sprintf("workers=%d shards=%d report differs from workers=%d shards=%d: %s",
					wk, sh, workers[0], shards[0], firstDiff(canonical, b))
				res.Report = canonical
				return res, nil
			}
		}
	}
	res.Invariant = true
	res.Report = canonical

	golden := GoldenPath(dir, sc.Name)
	if update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			return res, fmt.Errorf("scenario: %w", err)
		}
		if err := os.WriteFile(golden, canonical, 0o644); err != nil {
			return res, fmt.Errorf("scenario: %w", err)
		}
		res.Updated, res.GoldenMatch = true, true
		return res, nil
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		res.Detail = fmt.Sprintf("missing golden %s (regenerate with -update)", golden)
		return res, nil
	}
	if !bytes.Equal(want, canonical) {
		res.Detail = fmt.Sprintf("report drifted from %s: %s", golden, firstDiff(want, canonical))
		return res, nil
	}
	res.GoldenMatch = true
	return res, nil
}

// firstDiff describes the first differing line of two byte-wise reports.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}
