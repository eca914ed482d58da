package netsim

import (
	"context"

	"dnscde/internal/netsim/des"
)

// procCtxKey carries the des.Process driving the calling goroutine. A
// sequential workload (simtest.World.RunSequenced) tags its context with
// the process so blocking helpers — ExchangeRetry above all — ride the
// world's event loops via Await/Resume instead of private pooled
// schedulers.
type procCtxKey struct{}

// WithProcess returns ctx carrying p. Blocking netsim entry points that
// find a process in their context run their event chains on the
// process's sharded universe and park the goroutine until completion.
func WithProcess(ctx context.Context, p *des.Process) context.Context {
	return context.WithValue(ctx, procCtxKey{}, p)
}

// processFrom extracts the driving process, or nil.
func processFrom(ctx context.Context) *des.Process {
	p, _ := ctx.Value(procCtxKey{}).(*des.Process)
	return p
}

// ClearProcess shadows any process in ctx with nil. The exchange layer
// strips the process once at the bridge boundary so handler code — which
// runs on lane goroutines, not on the process goroutine — can never park
// a lane by awaiting on a context that is not its own.
func ClearProcess(ctx context.Context) context.Context {
	if processFrom(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, procCtxKey{}, (*des.Process)(nil))
}
