package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/service"
	"robustmap/internal/spec"
)

// paperPlans is the paper's two-predicate study: systems A, B and C.
var paperPlans = []string{
	"A1", "A2", "A3", "A4", "A5", "A6", "A7", "B1", "B2", "B3", "B4", "C1", "C2",
}

// mapWorkload is a workload that draws one whole map per job.
type mapWorkload struct {
	// request builds the job and the engine configuration for the seed.
	request func(e *env) (service.Request, engine.Config, error)
	// check validates a finished map against the resolved sweep's
	// oracle and, at the default seed, the committed baseline.
	check func(e *env, req service.Request, rs *service.ResolvedSweep, res *service.Result) error
}

var paperMap = mapWorkload{
	request: func(e *env) (service.Request, engine.Config, error) {
		cfg := engine.DefaultConfig()
		cfg.Seed = e.seed
		req := service.Request{Plans: paperPlans, Rows: 65536, MaxExp: 10, Grid2D: true, Parallelism: 2}
		return req, cfg, nil
	},
	check: func(e *env, req service.Request, rs *service.ResolvedSweep, res *service.Result) error {
		var baseline *service.Result
		if e.seed == defaultSeed {
			b, err := os.ReadFile(filepath.Join(e.root, "testdata", "maps", "builtin_2d.json"))
			if err != nil {
				return err
			}
			baseline = &service.Result{}
			if err := json.Unmarshal(b, baseline); err != nil {
				return fmt.Errorf("builtin_2d baseline: %w", err)
			}
		}
		return checkGrid(req, rs, res, baseline)
	},
}

var joinMap = mapWorkload{
	request: func(e *env) (service.Request, engine.Config, error) {
		q, err := spec.LoadQueryFile(filepath.Join(e.root, "examples", "workloads", "join_fkskew_query.json"))
		if err != nil {
			return service.Request{}, engine.Config{}, err
		}
		if e.seed != defaultSeed {
			for i := range q.Catalog.Tables {
				q.Catalog.Tables[i].Seed = mixSeed(q.Catalog.Tables[i].Seed, e.seed)
			}
		}
		cfg := engine.DefaultConfig()
		cfg.Seed = e.seed
		return service.Request{Query: q}, cfg, nil
	},
	check: func(e *env, req service.Request, rs *service.ResolvedSweep, res *service.Result) error {
		var baseline []byte
		if e.seed == defaultSeed {
			var err error
			baseline, err = os.ReadFile(filepath.Join(e.root, "testdata", "maps", "join_query.json"))
			if err != nil {
				return err
			}
		}
		return checkJoin(rs, res, baseline)
	},
}

// mixSeed derives a table seed from the spec's seed and the workload
// seed: positive, non-zero, and different for every workload seed.
func mixSeed(specSeed, seed int64) int64 {
	x := uint64(specSeed)*0x9E3779B97F4A7C15 ^ uint64(seed)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x>>2) | 1
}

// checkGrid validates a 2-D built-in map: the requested plans and axes,
// the cells (see checkCells), and — when a baseline is given — exact
// equality with every cell the baseline shares with the map.
func checkGrid(req service.Request, rs *service.ResolvedSweep, res *service.Result, baseline *service.Result) error {
	m := res.Map2D
	if m == nil {
		return fmt.Errorf("no 2-D map")
	}
	_, th := core.SweepAxis(req.Rows, req.MaxExp)
	if !slices.Equal(m.Plans, req.Plans) || !slices.Equal(m.TA, th) || !slices.Equal(m.TB, th) {
		return fmt.Errorf("map shape: plans %v, axes %v x %v", m.Plans, m.TA, m.TB)
	}
	if err := checkCells(m, rs); err != nil {
		return err
	}
	if baseline == nil {
		return nil
	}
	b := baseline.Map2D
	if b == nil {
		return fmt.Errorf("baseline has no 2-D map")
	}
	shared := 0
	for bp, plan := range b.Plans {
		p := slices.Index(m.Plans, plan)
		if p < 0 {
			continue
		}
		for bi, ta := range b.TA {
			i := slices.Index(m.TA, ta)
			for bj, tb := range b.TB {
				j := slices.Index(m.TB, tb)
				if i < 0 || j < 0 {
					continue
				}
				shared++
				if m.Times[p][i][j] != b.Times[bp][bi][bj] || m.Rows[i][j] != b.Rows[bi][bj] {
					return fmt.Errorf("plan %s at (%d,%d): %v and %d rows, baseline %v and %d rows",
						plan, ta, tb, m.Times[p][i][j], m.Rows[i][j], b.Times[bp][bi][bj], b.Rows[bi][bj])
				}
			}
		}
	}
	if shared == 0 {
		return fmt.Errorf("map shares no cell with the baseline")
	}
	return nil
}

// checkCells validates a 2-D map's cells: the shape, every cell's
// rows equal to the result-size oracle, and positive times.
func checkCells(m *core.Map2D, rs *service.ResolvedSweep) error {
	if len(m.Times) != len(m.Plans) || len(m.Rows) != len(m.TA) {
		return fmt.Errorf("map shape: %d time planes, %d row lines", len(m.Times), len(m.Rows))
	}
	if rs.ResultSize == nil {
		return fmt.Errorf("resolved sweep has no result-size oracle")
	}
	for i, ta := range m.TA {
		if len(m.Rows[i]) != len(m.TB) {
			return fmt.Errorf("map shape: row line %d has %d cells", i, len(m.Rows[i]))
		}
		for j, tb := range m.TB {
			if want := rs.ResultSize(ta, tb); m.Rows[i][j] != want {
				return fmt.Errorf("rows at (%d,%d) = %d, oracle %d", ta, tb, m.Rows[i][j], want)
			}
		}
	}
	for p := range m.Times {
		if len(m.Times[p]) != len(m.TA) {
			return fmt.Errorf("map shape: plan %s has %d time lines", m.Plans[p], len(m.Times[p]))
		}
		for i := range m.Times[p] {
			if len(m.Times[p][i]) != len(m.TB) {
				return fmt.Errorf("map shape: plan %s line %d has %d cells", m.Plans[p], i, len(m.Times[p][i]))
			}
			for j, t := range m.Times[p][i] {
				if t <= 0 {
					return fmt.Errorf("plan %s time at (%d,%d) is %v", m.Plans[p], m.TA[i], m.TB[j], t)
				}
			}
		}
	}
	return nil
}

// checkJoin validates a 1-D join-query map: one map line and one
// candidate per plan, the regret overlay, positive times, rows equal to
// the FK-tree oracle at every point, and — when a baseline is given —
// byte identity with it in the committed encoding.
func checkJoin(rs *service.ResolvedSweep, res *service.Result, baseline []byte) error {
	m := res.Map1D
	if m == nil || res.Regret1D == nil {
		return fmt.Errorf("no 1-D map with a regret overlay")
	}
	if len(res.Candidates) != len(m.Plans) || len(m.Times) != len(m.Plans) || len(m.Rows) != len(m.Thresholds) {
		return fmt.Errorf("map shape: %d candidates, %d plans, %d time lines, %d rows for %d points",
			len(res.Candidates), len(m.Plans), len(m.Times), len(m.Rows), len(m.Thresholds))
	}
	if rs.ResultSize == nil {
		return fmt.Errorf("resolved sweep has no result-size oracle")
	}
	for i, ta := range m.Thresholds {
		if want := rs.ResultSize(ta, -1); m.Rows[i] != want {
			return fmt.Errorf("rows at %d = %d, oracle %d", ta, m.Rows[i], want)
		}
	}
	for p, line := range m.Times {
		if len(line) != len(m.Thresholds) {
			return fmt.Errorf("map shape: plan %s has %d points", m.Plans[p], len(line))
		}
		for i, t := range line {
			if t <= 0 {
				return fmt.Errorf("plan %s time at %d is %v", m.Plans[p], m.Thresholds[i], t)
			}
		}
	}
	if baseline == nil {
		return nil
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if !bytes.Equal(append(got, '\n'), baseline) {
		return fmt.Errorf("map differs from the join_query baseline")
	}
	return nil
}

// countCells is the number of (plan, point) cells a result's map holds.
func countCells(res *service.Result) int {
	switch {
	case res.Map2D != nil:
		return len(res.Map2D.Plans) * len(res.Map2D.TA) * len(res.Map2D.TB)
	case res.Map1D != nil:
		return len(res.Map1D.Plans) * len(res.Map1D.Thresholds)
	}
	return 0
}

// rounds is what a pass's rounds leave for its traced layers.
type rounds struct {
	fresh [][2]time.Time // each fresh job's submit and decoded result
	mem   memDelta       // memory statistics over the fresh jobs
}

// draw runs rounds for e.seconds. Each round starts a service with
// start, runs the map fresh (every cell measured) and then repeats
// times more as an exact repeat, and stops the service. Every map is
// checked and must be byte-identical to first or, when first is nil, to
// the pass's first map.
func (w mapWorkload) draw(e *env, rec *recorder, p *passResult, req service.Request, rs *service.ResolvedSweep,
	first []byte, repeats int, start func() (service.Service, func(), error)) rounds {
	var (
		r     rounds
		peaks []float64
	)
	t0 := time.Now()
	for round := 0; round == 0 || time.Since(t0) < e.seconds; round++ {
		// Each round's memory peak is measured on its own, from the live
		// heap up: a pass's overall peak would grow with the number of
		// rounds, and so with speed.
		debug.FreeOSMemory()
		resetPeakRSS()
		svc, stop, err := start()
		if err != nil {
			p.attempted++
			p.fail("set-up: %v", err)
			break
		}
		for n := 0; n <= repeats; n++ {
			fresh := n == 0
			if fresh {
				// The daemons, the client and the benchmark share one
				// heap here: collecting first keeps the set-up's garbage
				// from slowing the fresh job. Repeats follow without a
				// collection, as they would on a daemon: one just before
				// a repeat made it slower and no steadier.
				runtime.GC()
			}
			measured := rec != nil && fresh
			r.mem.begin(measured)
			ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
			t := time.Now()
			res, err := service.Run(ctx, svc, req, nil)
			el := time.Since(t)
			cancel()
			r.mem.end(measured)
			if err == nil {
				err = w.check(e, req, rs, res)
			}
			if err == nil {
				first, err = sameMap(first, res)
			}
			if err == nil && fresh {
				p.cells = countCells(res)
				r.fresh = append(r.fresh, [2]time.Time{t, t.Add(el)})
			}
			p.addJob(fresh, el, err)
		}
		peaks = append(peaks, peakRSSMB())
		stop()
	}
	p.peakRSS = median(peaks)
	p.to = time.Now()
	return r
}

// sameMap compares res's encoding with first and returns the reference
// to compare later maps with: first, or res's encoding when first is nil.
func sameMap(first []byte, res *service.Result) ([]byte, error) {
	b, err := json.Marshal(res)
	switch {
	case err != nil:
		return first, err
	case first == nil:
		return b, nil
	case !bytes.Equal(first, b):
		return first, fmt.Errorf("map differs from the reference map")
	}
	return first, nil
}

// localRepeats is how many exact repeats follow each fresh map in
// process. No traffic mix sets it: the benchmark was specified with
// fresh maps only here, and the repeats exist because every workload
// reports repeat_job_ms_p50. It sets that median's sample count (32 a
// run on paper-map) and nothing else, as no metric pools fresh and
// repeat jobs.
const localRepeats = 8

// runLocal draws the map on an in-process service.Local. The pass first
// builds several cold resolvers (the set-ups, see moreSetups) and keeps
// the last; each round starts a Local over it with an empty measurement
// cache, which serves the round's repeats.
func (w mapWorkload) runLocal(e *env, rec *recorder) *passResult {
	p := newPassResult()
	req, cfg, err := w.request(e)
	if err != nil {
		p.attempted++
		p.fail("workload input: %v", err)
		return p
	}
	var (
		resolver service.Resolver
		rs       *service.ResolvedSweep
	)
	for p.moreSetups() {
		runtime.GC()
		resolver = service.NewEngineResolver(cfg)
		if rec != nil {
			resolver = tracedResolver{Resolver: resolver, rec: rec}
		}
		t0 := time.Now()
		rs, err = resolver.Resolve(req)
		p.addSetup(t0, time.Now())
		if err != nil {
			p.attempted++
			p.fail("set-up: %v", err)
			return p
		}
	}
	start := time.Now()
	r := w.draw(e, rec, p, req, rs, nil, localRepeats, func() (service.Service, func(), error) {
		local := service.NewLocal(service.LocalConfig{Workers: 1, CacheSize: -1, Resolver: resolver})
		var svc service.Service = local
		if rec != nil {
			svc = tracedService{Service: local, rec: rec, layer: "service"}
		}
		return svc, closeLocal(local), nil
	})
	if rec != nil {
		p.jobLayers(rec, "service", start, r)
	}
	return p
}

// closeLocal returns a function that shuts l down.
func closeLocal(l *service.Local) func() {
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = l.Close(ctx) // forced shutdown on timeout is fine: the round is over
	}
}

// reference runs the request on an in-process service.Local over the
// resolver, checks the map and returns its encoding.
func (w mapWorkload) reference(e *env, req service.Request, resolver service.Resolver, rs *service.ResolvedSweep) ([]byte, error) {
	l := service.NewLocal(service.LocalConfig{Resolver: resolver})
	defer closeLocal(l)()
	res, err := service.Run(context.Background(), l, req, nil)
	if err != nil {
		return nil, err
	}
	if err := w.check(e, req, rs, res); err != nil {
		return nil, err
	}
	return json.Marshal(res)
}
