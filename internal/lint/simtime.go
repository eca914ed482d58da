package lint

import (
	"go/ast"
	"go/types"
)

// Simtime is the type-aware successor to walltime for the simulation
// packages: netsim, scenario and experiments must run entirely on
// simulated time (clock.Clock, charged latencies, per-flow counters), so
// a wall-clock read laundered through a module-internal helper is just as
// damaging as a direct time.Now — the reports stop being a pure function
// of (scenario, seed). Simtime computes, over the whole module, which
// functions reach the wall clock through static calls, and flags every
// call site in a simulation package whose callee carries that taint.
//
// Division of labour with walltime: walltime flags the direct call sites
// of its denied set everywhere; simtime adds (a) time.Since/time.Until —
// legal elsewhere for real-socket RTTs — inside the simulation packages,
// and (b) transitive reach through module helpers. Paths through the
// clock.Clock interface are structurally invisible to the static call
// graph, which is exactly the point: an injected clock is the approved
// way to consume time. A wall-clock call site suppressed for simtime
// does not taint its callers.
var Simtime = &Analyzer{
	Name: "simtime",
	Doc:  "simulation packages (netsim, its des core, scenario, experiments) must not reach the wall clock, even through module-internal helpers",
	Run:  runSimtime,
}

// simtimeRoots are the packages whose results must be wall-clock-free.
// internal/campaign is included because its run core (runner.go) must
// stay a pure function of (spec, run index); the campaign scheduler's
// tick loop is the one annotated wall-clock boundary inside it.
var simtimeRoots = map[string]bool{
	"internal/netsim":      true,
	"internal/netsim/des":  true,
	"internal/scenario":    true,
	"internal/experiments": true,
	"internal/campaign":    true,
	"internal/worldstate":  true,
}

// simtimeDenied extends walltime's set with the measurement pair: on a
// simulated path even Since/Until leak host timing into results.
var simtimeDenied = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

// wallTaint records how a function reaches the wall clock.
type wallTaint struct {
	// via is the module callee the taint arrives through (nil when the
	// function calls time directly).
	via *types.Func
	// source is the time package function ultimately reached.
	source string
}

// wallClockTaint computes (once per tree) the module functions that reach
// a denied time function through static calls. internal/clock is the
// sanctioned wall-clock boundary and never taints.
func wallClockTaint(t *Tree) map[*types.Func]*wallTaint {
	return memoize(t, "simtime.taint", func() map[*types.Func]*wallTaint {
		funcs := moduleFuncs(t)
		taint := map[*types.Func]*wallTaint{}
		// Seed: functions with a direct, unsuppressed denied call.
		for _, fi := range sortedFuncs(funcs) {
			if fi.Pkg.RelPath == "internal/clock" {
				continue
			}
			fi := fi
			ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
				if taint[fi.Obj] != nil {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, ok := pkgFunc(t.Info, call, "time")
				if ok && simtimeDenied[name] && !t.suppressed(call.Pos(), "simtime") {
					taint[fi.Obj] = &wallTaint{source: "time." + name}
					return false
				}
				return true
			})
		}
		// Propagate backwards over static call edges to a fixpoint.
		for changed := true; changed; {
			changed = false
			for _, fi := range sortedFuncs(funcs) {
				if taint[fi.Obj] != nil || fi.Pkg.RelPath == "internal/clock" {
					continue
				}
				for _, callee := range staticCallees(t, funcs, fi) {
					ct := taint[callee]
					if ct == nil {
						continue
					}
					taint[fi.Obj] = &wallTaint{via: callee, source: ct.source}
					changed = true
					break
				}
			}
		}
		return taint
	})
}

func runSimtime(p *Pass) {
	if !simtimeRoots[p.Pkg.RelPath] {
		return
	}
	t := p.Tree
	taint := wallClockTaint(t)
	funcs := moduleFuncs(t)
	info := p.Info()
	for _, f := range p.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Direct Since/Until: the part of the denied set walltime does
			// not already report (avoiding duplicate findings per site).
			if name, ok := pkgFunc(info, call, "time"); ok {
				if simtimeDenied[name] && !walltimeDenied[name] {
					p.Reportf(call.Pos(),
						"time.%s measures the wall clock inside a simulation package; derive durations from the simulated clock", name)
				}
				return true
			}
			// Transitive: a module callee that reaches the wall clock.
			callee := staticCallee(info, call)
			if callee == nil {
				return true
			}
			ct := taint[callee]
			if ct == nil {
				return true
			}
			if _, inModule := funcs[callee]; !inModule {
				return true
			}
			p.Reportf(call.Pos(), "call to %s reaches %s (%s); thread a clock.Clock through instead",
				funcDisplayName(callee), ct.source, taintChain(taint, callee))
			return true
		})
	}
}

// taintChain renders the helper chain from fn to the wall-clock source,
// e.g. "helperA → helperB → time.Now".
func taintChain(taint map[*types.Func]*wallTaint, fn *types.Func) string {
	out := funcDisplayName(fn)
	for hops := 0; hops < 10; hops++ {
		ct := taint[fn]
		if ct == nil {
			break
		}
		if ct.via == nil {
			return out + " → " + ct.source
		}
		fn = ct.via
		out += " → " + funcDisplayName(fn)
	}
	return out
}

// Simgo keeps goroutines out of the simulation packages. Simulation state
// changes only inside scheduler-ordered events, so a run is a function of
// (scenario, seed); a goroutine racing the event loop for a cache or an
// RNG stream makes the outcome depend on the host's interleaving instead
// — the class of defect that once let parallel init/validate seeds count
// a cache twice. The two sanctioned boundaries (the sharded scheduler's
// lane workers and RunSequenced's process driver) carry a reasoned
// //cdelint:allow simgo.
var Simgo = &Analyzer{
	Name: "simgo",
	Doc:  "simulation packages (core, platform, netsim, its des core, simtest, scenario, experiments) must not start goroutines",
	Run:  runSimgo,
}

// simgoRoots are the packages whose code runs on, or drives, the
// simulated event loops: simtime's simulation roots plus the probe
// drivers, the platform pipeline and the world builder. The campaign
// engine and the snapshot codec run outside the loops and keep their
// worker goroutines.
var simgoRoots = map[string]bool{
	"internal/core":        true,
	"internal/platform":    true,
	"internal/netsim":      true,
	"internal/netsim/des":  true,
	"internal/simtest":     true,
	"internal/scenario":    true,
	"internal/experiments": true,
}

func runSimgo(p *Pass) {
	if !simgoRoots[p.Pkg.RelPath] {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				p.Reportf(gs.Pos(),
					"go statement in a simulation package; schedule the work as events on the scheduler instead")
			}
			return true
		})
	}
}
