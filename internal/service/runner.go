package service

import (
	"context"
	"fmt"

	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/optimizer"
)

// Runner is how a Local scheduler executes admitted jobs. The default
// runner resolves requests to engine measurements and sweeps them in
// process; the fabric coordinator substitutes a runner that partitions
// the grid into shards and dispatches them to worker daemons. Either
// way the scheduler around it — admission queue, tenant quotas, job
// lifecycle, watch fan-out, TTL GC, archive consultation — is the same
// code, so a coordinator behaves exactly like a daemon from a client's
// point of view.
type Runner interface {
	// Check validates a request at Submit; it must be cheap.
	Check(req Request) error
	// Run executes the job under ctx, reporting progress snapshots to
	// onProgress (never nil; calls may come from any goroutine but are
	// serialized by the caller's publication path).
	Run(ctx context.Context, req Request, onProgress core.ProgressFunc) (*Result, error)
}

// sweepRunner is the default Runner: resolve the request against the
// engine (or a custom Resolver), wrap the sources in the shared cache
// and persistent measurement log, and run the sweep in process. It is
// the pre-fabric Local.execute, extracted so schedulers can swap it.
type sweepRunner struct {
	resolver Resolver
	local    *Local // cache and store live on the scheduler
}

// Check implements Runner.
func (r *sweepRunner) Check(req Request) error { return r.resolver.Check(req) }

// Run implements Runner.
func (r *sweepRunner) Run(ctx context.Context, req Request, onProgress core.ProgressFunc) (*Result, error) {
	rs, err := r.resolver.Resolve(req)
	if err != nil {
		return nil, err
	}
	sources := make([]core.PlanSource, len(rs.Sources))
	for i, src := range rs.Sources {
		scope := ""
		if i < len(rs.Scopes) {
			scope = rs.Scopes[i]
		}
		// Two-tier chain, both optional: LRU in front, persistent log
		// behind it, the real measurement at the bottom. Wrap on a nil
		// cache or store returns the source unchanged.
		sources[i] = r.local.cache.Wrap(scope, r.local.store.Wrap(scope, src))
	}
	// The request's axis, then the shard slice: the thresholds are
	// derived for the whole map first, so a shard's cells carry exactly
	// the values the same cells of an unsharded run carry.
	fracA, ta := rs.Fractions, rs.Thresholds
	if s := req.Shard; s != nil {
		if s.Hi > len(ta) {
			return nil, fmt.Errorf("%w: shard [%d,%d) exceeds the %d-point axis",
				ErrInvalidRequest, s.Lo, s.Hi, len(ta))
		}
		fracA, ta = fracA[s.Lo:s.Hi], ta[s.Lo:s.Hi]
	}
	opts := []core.SweepOption{
		core.WithParallelism(req.Parallelism),
		core.WithProgress(onProgress),
	}
	if req.EffectiveGrid2D() {
		opts = append(opts, core.Grid2D(fracA, rs.Fractions, ta, rs.Thresholds))
	} else {
		opts = append(opts, core.Grid1D(fracA, ta))
	}
	if req.Refine {
		acfg := core.DefaultAdaptiveConfig()
		acfg.ResultSize = rs.ResultSize
		opts = append(opts, core.WithAdaptive(acfg))
	}
	sres, err := core.NewSweep(sources, opts...).Run(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Map1D:  sres.Map1D,
		Mesh1D: sres.Mesh1D,
		Map2D:  sres.Map2D,
		Mesh2D: sres.Mesh2D,
	}
	if rs.Finish != nil {
		if err := rs.Finish(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// SynthesizeQuery lowers a query request to the workload request its
// measurements actually run: the optimizer enumerates the candidate
// plans, wraps them in a one-system workload over the query's catalog,
// and returns (1) the lowered request and (2) the finish overlay that
// recomputes the candidate list, per-cell picks, and regret grids over
// the assembled maps. The fabric coordinator uses it to shard query
// jobs: shards measure the synthesized workload (shippable by content
// hash like any workload), and the overlay runs once over the merged
// map — which is what keeps regret's neighbor-flip analysis
// byte-identical to a single-process run, where a per-shard overlay
// would see artificial seams at shard boundaries.
func SynthesizeQuery(req Request, defaultRows int64) (Request, func(*Result) error, error) {
	if req.Query == nil {
		return Request{}, nil, fmt.Errorf("%w: not a query request", ErrInvalidRequest)
	}
	if err := req.Validate(); err != nil {
		return Request{}, nil, err
	}
	cands, err := optimizer.Enumerate(req.Query)
	if err != nil {
		return Request{}, nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	ws := optimizer.Workload(req.Query, cands)
	lowered := req
	lowered.Query = nil
	lowered.Workload = ws
	rows := req.EffectiveRows(defaultRows)
	// The caller has no engine config, so the model's histograms assume
	// the engine's default seed.
	finish := queryFinish(cands, optimizer.NewModel(req.Query, rows, engine.DefaultConfig().Seed))
	return lowered, finish, nil
}
