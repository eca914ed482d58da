package lint

// Tests for the PR-6 typed analyzers: hotalloc, exhaustive, simtime,
// errflow, plus the cross-package machinery they ride on (module-internal
// imports, the hot closure, the taint fixpoint and the fact store). Each
// analyzer's table covers a positive case, a negative case, a suppression
// case and — where the analyzer is cross-package — a propagation case.

import (
	"go/ast"
	"testing"
)

// modFile declares the fixture module so module-internal imports resolve.
const modFile = "module fixmod\n\ngo 1.22\n"

func TestHotalloc(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "flags allocating constructs in an annotated function",
			files: map[string]string{"internal/foo/foo.go": `package foo

type point struct{ x, y int }

//cdelint:hotpath
func Hot(a, b string) string {
	buf := make([]byte, 64)
	_ = buf
	p := &point{1, 2}
	_ = p
	xs := []int{1, 2, 3}
	_ = xs
	return a + b
}
`},
			want: []string{
				"[hotalloc] make allocates",
				"[hotalloc] &foo.point escapes to the heap",
				"[hotalloc] []int literal allocates",
				"[hotalloc] string concatenation allocates",
			},
		},
		{
			name: "arrays, constants and unannotated functions are fine",
			files: map[string]string{"internal/foo/foo.go": `package foo

//cdelint:hotpath
func Hot() int {
	var counts [4]int
	counts = [...]int{1, 2, 3, 4}
	s := "a" + "b" // constant-folded
	return counts[0] + len(s)
}

func Cold() []byte { return make([]byte, 64) }
`},
			want: nil,
		},
		{
			name: "fmt formats are flagged, fmt.Errorf is exempt",
			files: map[string]string{"internal/foo/foo.go": `package foo

import "fmt"

//cdelint:hotpath
func Hot(err error) (string, error) {
	if err != nil {
		return "", fmt.Errorf("wrapped: %w", err)
	}
	return fmt.Sprintf("x=%d", 42), nil
}
`},
			want: []string{"[hotalloc] fmt.Sprintf formats (and allocates)"},
		},
		{
			name: "append to an unhinted slice is flagged, parameters are not",
			files: map[string]string{"internal/foo/foo.go": `package foo

//cdelint:hotpath
func Grow() int {
	var xs []int
	for i := 0; i < 4; i++ {
		xs = append(xs, i)
	}
	return len(xs)
}

//cdelint:hotpath
func Fill(xs []int) []int {
	for i := 0; i < 4; i++ {
		xs = append(xs, i)
	}
	return xs
}
`},
			want: []string{`[hotalloc] append to "xs" grows an unhinted slice`},
		},
		{
			name: "interface boxing of a value argument is flagged",
			files: map[string]string{"internal/foo/foo.go": `package foo

func sink(v any) { _ = v }

//cdelint:hotpath
func Hot(p *int) {
	sink(42)
	sink(p)  // pointer-shaped: free
	sink(nil)
}
`},
			want: []string{"[hotalloc] passing int boxes it into any"},
		},
		{
			name: "the closure crosses package boundaries",
			files: map[string]string{
				"go.mod": modFile,
				"internal/a/a.go": `package a

import "fixmod/internal/b"

//cdelint:hotpath
func Hot() []byte { return b.Helper() }
`,
				"internal/b/b.go": `package b

func Helper() []byte { return make([]byte, 64) }
`,
			},
			want: []string{"b.go:3:31: [hotalloc] make allocates in hotpath a.Hot"},
		},
		{
			name: "an allow comment on the call line prunes the edge",
			files: map[string]string{
				"go.mod": modFile,
				"internal/a/a.go": `package a

import "fixmod/internal/b"

//cdelint:hotpath
func Hot() []byte {
	//cdelint:allow hotalloc setup path runs once per trial
	return b.Helper()
}
`,
				"internal/b/b.go": `package b

func Helper() []byte { return make([]byte, 64) }
`,
			},
			want: nil,
		},
		{
			name: "suppression on the allocation line itself",
			files: map[string]string{"internal/foo/foo.go": `package foo

//cdelint:hotpath
func Hot() []byte {
	//cdelint:allow hotalloc scratch allocated once, reused by the caller
	return make([]byte, 64)
}
`},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDiags(t, analyze(t, tc.files, []*Analyzer{Hotalloc}), tc.want...)
		})
	}
}

func TestExhaustive(t *testing.T) {
	const kindPkg = `package kind

type K string

const (
	A K = "a"
	B K = "b"
	C K = "c"
)
`
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "missing member without default is flagged",
			files: map[string]string{
				"internal/kind/kind.go": kindPkg,
				"internal/kind/use.go": `package kind

func Use(k K) int {
	switch k {
	case A:
		return 1
	case B:
		return 2
	}
	return 0
}
`,
			},
			want: []string{"[exhaustive] switch over K is not exhaustive: missing C"},
		},
		{
			name: "full coverage passes, as does a loud default",
			files: map[string]string{
				"internal/kind/kind.go": kindPkg,
				"internal/kind/use.go": `package kind

func Full(k K) int {
	switch k {
	case A, B:
		return 1
	case C:
		return 2
	}
	return 0
}

func Loud(k K) int {
	switch k {
	case A:
		return 1
	default:
		panic("unhandled kind")
	}
}
`,
			},
			want: nil,
		},
		{
			name: "an empty default swallows members silently",
			files: map[string]string{
				"internal/kind/kind.go": kindPkg,
				"internal/kind/use.go": `package kind

func Use(k K) int {
	switch k {
	case A:
		return 1
	default:
	}
	return 0
}
`,
			},
			want: []string{"[exhaustive] switch over K has an empty default"},
		},
		{
			name: "enum sets propagate across packages",
			files: map[string]string{
				"go.mod":                modFile,
				"internal/kind/kind.go": kindPkg,
				"internal/use/use.go": `package use

import "fixmod/internal/kind"

func Dispatch(k kind.K) int {
	switch k {
	case kind.A:
		return 1
	}
	return 0
}
`,
			},
			want: []string{"use.go:6:2: [exhaustive] switch over K is not exhaustive: missing B, C"},
		},
		{
			name: "non-enum switches and other-package constants are ignored",
			files: map[string]string{
				"go.mod":                modFile,
				"internal/kind/kind.go": kindPkg,
				"internal/use/use.go": `package use

import "fixmod/internal/kind"

// Local constants of an imported type are values, not new members.
const local kind.K = "a"

func Str(s string) int {
	switch s {
	case "x":
		return 1
	}
	return 0
}

func Dispatch(k kind.K) int {
	switch k {
	case kind.A, kind.B, kind.C:
		return 1
	}
	return 0
}
`,
			},
			want: nil,
		},
		{
			name: "suppression silences one switch",
			files: map[string]string{
				"internal/kind/kind.go": kindPkg,
				"internal/kind/use.go": `package kind

func Use(k K) int {
	//cdelint:allow exhaustive only A matters on this path
	switch k {
	case A:
		return 1
	}
	return 0
}
`,
			},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDiags(t, analyze(t, tc.files, []*Analyzer{Exhaustive}), tc.want...)
		})
	}
}

func TestSimtime(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "direct Since in a simulation package is flagged",
			files: map[string]string{"internal/netsim/sim.go": `package netsim

import "time"

func RTT(start time.Time) time.Duration { return time.Since(start) }
`},
			want: []string{"[simtime] time.Since measures the wall clock"},
		},
		{
			name: "Since outside the simulation packages is fine",
			files: map[string]string{"internal/udpnet/net.go": `package udpnet

import "time"

func RTT(start time.Time) time.Duration { return time.Since(start) }
`},
			want: nil,
		},
		{
			name: "wall-clock reach through a module helper is flagged with a chain",
			files: map[string]string{
				"go.mod": modFile,
				"internal/util/util.go": `package util

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
				"internal/netsim/sim.go": `package netsim

import "fixmod/internal/util"

func Record() int64 { return util.Stamp() }
`,
			},
			want: []string{"[simtime] call to util.Stamp reaches time.Now (util.Stamp → time.Now)"},
		},
		{
			name: "taint propagates through intermediate helpers",
			files: map[string]string{
				"go.mod": modFile,
				"internal/util/util.go": `package util

import "time"

func stamp() int64 { return time.Now().UnixNano() }

func Wrapped() int64 { return stamp() }
`,
				"internal/netsim/sim.go": `package netsim

import "fixmod/internal/util"

func Record() int64 { return util.Wrapped() }
`,
			},
			want: []string{"reaches time.Now (util.Wrapped → util.stamp → time.Now)"},
		},
		{
			name: "internal/clock is the sanctioned boundary and never taints",
			files: map[string]string{
				"go.mod": modFile,
				"internal/clock/clock.go": `package clock

import "time"

func Wall() time.Time { return time.Now() }
`,
				"internal/netsim/sim.go": `package netsim

import "fixmod/internal/clock"

func Record() int64 { return clock.Wall().UnixNano() }
`,
			},
			want: nil,
		},
		{
			name: "a suppressed source site does not taint its callers",
			files: map[string]string{
				"go.mod": modFile,
				"internal/util/util.go": `package util

import "time"

func Stamp() int64 {
	//cdelint:allow simtime log timestamps are wall-clock on purpose
	return time.Now().UnixNano()
}
`,
				"internal/netsim/sim.go": `package netsim

import "fixmod/internal/util"

func Record() int64 { return util.Stamp() }
`,
			},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDiags(t, analyze(t, tc.files, []*Analyzer{Simtime}), tc.want...)
		})
	}
}

func TestSimgo(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "go statement in a simulation package is flagged",
			files: map[string]string{"internal/platform/p.go": `package platform

func Resolve(done chan struct{}) {
	go func() { close(done) }()
}
`},
			want: []string{"[simgo] go statement in a simulation package"},
		},
		{
			name: "method goroutine in a nested simulation package is flagged",
			files: map[string]string{"internal/netsim/des/d.go": `package des

type lane struct{}

func (l *lane) loop() {}

func Start(l *lane) { go l.loop() }
`},
			want: []string{"[simgo] go statement in a simulation package"},
		},
		{
			name: "goroutines outside the simulation packages are fine",
			files: map[string]string{"internal/campaign/c.go": `package campaign

func Start(done chan struct{}) {
	go func() { close(done) }()
}
`},
			want: nil,
		},
		{
			name: "a reasoned allow marks a sanctioned boundary",
			files: map[string]string{"internal/simtest/s.go": `package simtest

func Drive(done chan struct{}) {
	//cdelint:allow simgo the driver parks between scheduler rounds
	go func() { close(done) }()
}
`},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDiags(t, analyze(t, tc.files, []*Analyzer{Simgo}), tc.want...)
		})
	}
}

func TestErrflow(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "flattening an error with %v or %s is flagged, %w is not",
			files: map[string]string{"internal/foo/foo.go": `package foo

import "fmt"

func V(err error) error { return fmt.Errorf("ctx: %v", err) }
func S(err error) error { return fmt.Errorf("ctx: %s", err) }
func W(err error) error { return fmt.Errorf("ctx: %w", err) }
`},
			want: []string{
				"[errflow] fmt.Errorf formats an error with %v",
				"[errflow] fmt.Errorf formats an error with %s",
			},
		},
		{
			name: "non-error arguments and positional mapping are handled",
			files: map[string]string{"internal/foo/foo.go": `package foo

import "fmt"

func Mixed(key string, err error) error {
	return fmt.Errorf("key %q width %*d: %w then %v", key, 4, 7, err, "not an error")
}
`},
			want: nil,
		},
		{
			name: "blank-discarded errors in an I/O package are flagged, Close is exempt",
			files: map[string]string{"internal/dnswire/wire.go": `package dnswire

import "errors"

func op() error                { return errors.New("x") }
func pair() (int, error)       { return 0, errors.New("x") }
func Close() error             { return nil }

func Use() {
	_ = op()
	_, _ = pair()
	_ = Close()
}
`},
			want: []string{
				"[errflow] call result including an error is discarded",
				"[errflow] call result including an error is discarded",
			},
		},
		{
			name: "discards outside the I/O packages are not flagged",
			files: map[string]string{"internal/stats/s.go": `package stats

import "errors"

func op() error { return errors.New("x") }
func Use()      { _ = op() }
`},
			want: nil,
		},
		{
			name: "suppression",
			files: map[string]string{"internal/dnswire/wire.go": `package dnswire

import "errors"

func op() error { return errors.New("x") }

func Use() {
	//cdelint:allow errflow best-effort notification, failure is expected
	_ = op()
}
`},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDiags(t, analyze(t, tc.files, []*Analyzer{Errflow}), tc.want...)
		})
	}
}

func TestAllowCommaLists(t *testing.T) {
	files := map[string]string{"internal/foo/foo.go": `package foo

import (
	"fmt"
	"time"
)

//cdelint:hotpath
func Hot() string {
	//cdelint:allow hotalloc,walltime fixture exercises both suppressions at once
	return fmt.Sprintf("%v", time.Now())
}
`}
	wantDiags(t, analyze(t, files, []*Analyzer{Walltime, Hotalloc}))
}

func TestAllowUnknownAnalyzerName(t *testing.T) {
	files := map[string]string{"internal/foo/foo.go": `package foo

//cdelint:allow warptime this analyzer does not exist
func F() {}
`}
	wantDiags(t, analyze(t, files, []*Analyzer{Walltime}),
		`[cdelint] allow comment names unknown analyzer "warptime"`)
}

// TestFactPropagation drives the fact store across packages: an analyzer
// exports a fact about an object while visiting its defining package and
// reads it back through the object's identity from an importing package.
func TestFactPropagation(t *testing.T) {
	var got []string
	probe := &Analyzer{
		Name: "probe",
		Run: func(p *Pass) {
			switch p.Pkg.RelPath {
			case "internal/a":
				obj := p.Pkg.Types.Scope().Lookup("Answer")
				if obj == nil {
					t.Fatal("fixture object Answer not found")
				}
				p.ExportFact(obj, "note", "forty-two")
			case "internal/b":
				info := p.Info()
				for _, f := range p.Pkg.Files {
					ast.Inspect(f.AST, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok || id.Name != "Answer" {
							return true
						}
						if obj := info.Uses[id]; obj != nil {
							if v, ok := p.ImportFact(obj, "note"); ok {
								got = append(got, v.(string))
							}
						}
						return true
					})
				}
			}
		},
	}
	files := map[string]string{
		"go.mod": modFile,
		"internal/a/a.go": `package a

const Answer = 42
`,
		"internal/b/b.go": `package b

import "fixmod/internal/a"

func Use() int { return a.Answer }
`,
	}
	wantDiags(t, analyze(t, files, []*Analyzer{probe}))
	if len(got) != 1 || got[0] != "forty-two" {
		t.Fatalf("fact round trip = %v, want [forty-two]", got)
	}
}

func TestSelect(t *testing.T) {
	picked, err := Select("hotalloc,errflow")
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 2 || picked[0].Name != "hotalloc" || picked[1].Name != "errflow" {
		t.Fatalf("Select = %v", picked)
	}
	if _, err := Select("hotalloc,bogus"); err == nil {
		t.Fatal("Select accepted an unknown analyzer name")
	}
}

func TestAnalyzersComplete(t *testing.T) {
	want := []string{
		"walltime", "detrand", "ctxflow", "mutexcopy", "goleak",
		"wiresafe", "hotalloc", "exhaustive", "simtime", "errflow",
		"simgo",
	}
	all := Analyzers()
	if len(all) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, all[i].Name, name)
		}
	}
}
