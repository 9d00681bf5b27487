package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/fabric"
	"robustmap/internal/httpapi"
	"robustmap/internal/mapstore"
	"robustmap/internal/service"
	"robustmap/internal/spec"
)

const (
	// fleetWorkers is the worker daemons behind the coordinator.
	fleetWorkers = 2
	// fleetRows and fleetMaxExp size the fleet-map query's table and
	// grid.
	fleetRows   = 8192
	fleetMaxExp = 5
	// jobTTL is how long the daemons keep finished jobs (robustmapd
	// -job-ttl); clients fetch results at once.
	jobTTL = 2 * time.Second
)

// fleetMap draws examples/workloads/skewed_query.json through the
// fleet: an httpapi client submits the query to a coordinator daemon,
// which lowers it to the optimizer's workload, ships that by content
// hash, shards the 2-D grid across two worker daemons, merges the
// shards, overlays regret and archives the map.
var fleetMap = mapWorkload{
	request: func(e *env) (service.Request, engine.Config, error) {
		q, err := spec.LoadQueryFile(filepath.Join(e.root, "examples", "workloads", "skewed_query.json"))
		if err != nil {
			return service.Request{}, engine.Config{}, err
		}
		cfg := engine.DefaultConfig()
		cfg.Seed = e.seed
		return service.Request{Query: q, Rows: fleetRows, MaxExp: fleetMaxExp}, cfg, nil
	},
	check: func(_ *env, req service.Request, rs *service.ResolvedSweep, res *service.Result) error {
		m := res.Map2D
		if m == nil || res.Regret2D == nil {
			return fmt.Errorf("no 2-D map with a regret overlay")
		}
		_, th := core.SweepAxis(req.Rows, req.EffectiveMaxExp())
		if len(res.Candidates) != len(m.Plans) || !slices.Equal(m.TA, th) || !slices.Equal(m.TB, th) {
			return fmt.Errorf("map shape: %d candidates, %d plans, axes %v x %v",
				len(res.Candidates), len(m.Plans), m.TA, m.TB)
		}
		return checkCells(m, rs)
	},
}

// runFleet draws the map through the fleet. Before the rounds, the
// same request runs on an in-process service.Local: that map, checked
// against the oracle, is the reference every fleet map must equal. Each
// round starts a cold fleet (the set-up), draws the map fresh and then
// once more, served by the coordinator's map archive: half the jobs are
// exact repeats, the mix the benchmark was specified with for its
// fleet workload.
func (w mapWorkload) runFleet(e *env, rec *recorder) *passResult {
	p := newPassResult()
	req, cfg, err := w.request(e)
	var (
		rs    *service.ResolvedSweep
		first []byte
	)
	if err == nil {
		resolver := service.NewEngineResolver(cfg)
		if rs, err = resolver.Resolve(req); err == nil {
			first, err = w.reference(e, req, resolver, rs)
		}
	}
	if err != nil {
		p.attempted++
		p.fail("in-process reference: %v", err)
		return p
	}
	var stats fleetStats
	start := time.Now()
	r := w.draw(e, rec, p, req, rs, first, 1, func() (service.Service, func(), error) {
		t0 := time.Now()
		f, err := startFleet(cfg, rec, filepath.Join(e.work, "fleet"), req)
		p.addSetup(t0, time.Now())
		if err != nil || rec == nil {
			return f.svc, f.stop, err
		}
		before, err := f.stats(context.Background())
		if err != nil {
			f.stop()
			return nil, nil, err
		}
		return f.svc, func() {
			after, err := f.stats(context.Background())
			if err != nil {
				p.fail("stats: %v", err)
			}
			stats.add(before, after)
			f.stop()
		}, nil
	})
	if rec != nil {
		planned := len(r.fresh) * len(fabric.Partition(req.EffectiveMaxExp()+1, 2*fleetWorkers))
		p.fleetLayers(rec, start, stats, planned)
		p.jobLayers(rec, "httpapi", start, r)
	}
	return p
}

// fleet is one running coordinator with its workers, all in process and
// served over loopback HTTP.
type fleet struct {
	svc     service.Service   // the coordinator client, traced when tracing
	coord   *httpapi.Client   // the coordinator client itself
	workers []*httpapi.Client // direct worker clients, for their stats
	dir     string            // the coordinator's store directory
	stops   []func()
}

func (f *fleet) stop() {
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
}

var nolog = func(string, ...any) {}

// startFleet starts a cold fleet in dir: the coordinator daemon
// (service.Local over fabric.Coordinator, with its own mapstore) and the
// worker daemons (service.Local with an unbounded measurement cache),
// then builds the systems req needs on every worker through its
// resolver, as the first shard would.
//
// The workers run without a mapstore. With one, every shard also made
// an fsync'd archive write on a worker; on the shared disk the bounds
// were set on (NOTES.md), that latency changed so much from minute to
// minute that a closed loop of small fleet jobs could not be made
// steady. The coordinator's archive keeps mapstore writes (fresh jobs)
// and reads (repeats) in the workload.
func startFleet(cfg engine.Config, rec *recorder, dir string, req service.Request) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	if err := os.RemoveAll(dir); err != nil {
		return f, err
	}
	lowered, _, err := service.SynthesizeQuery(req, cfg.Rows)
	if err != nil {
		return f, err
	}
	reg := fabric.NewRegistry(0, nil)
	resolvers := make([]service.Resolver, fleetWorkers)
	for i := range resolvers {
		specs := fabric.NewSpecCache(0)
		resolvers[i] = service.NewEngineResolver(cfg)
		if rec != nil {
			resolvers[i] = tracedResolver{Resolver: resolvers[i], rec: rec}
		}
		l := service.NewLocal(service.LocalConfig{
			Workers: -1, CacheSize: -1, TTL: jobTTL, Specs: specs, Resolver: resolvers[i]})
		f.stops = append(f.stops, closeLocal(l))
		var svc service.Service = l
		if rec != nil {
			svc = tracedService{Service: l, rec: rec, layer: "worker"}
		}
		ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.WithLogger(nolog), httpapi.WithSpecs(specs)))
		f.stops = append(f.stops, ts.Close)
		reg.RegisterWorker(ts.URL)
		f.workers = append(f.workers, httpapi.NewClient(ts.URL))
	}
	f.dir = filepath.Join(dir, "coordinator")
	st, err := mapstore.Open(f.dir, mapstore.Config{EngineVersion: engine.MeasurementVersion})
	if err != nil {
		return f, err
	}
	f.stops = append(f.stops, func() {
		_ = st.Close()        // the round is over; nothing more to persist
		_ = os.RemoveAll(dir) // scratch space; the next start removes a leftover
	})
	specs := fabric.NewSpecCache(0)
	coord := service.NewLocal(service.LocalConfig{
		Workers: -1, TTL: jobTTL, Store: st, Specs: specs,
		Runner: fabric.NewCoordinator(fabric.CoordinatorConfig{
			Registry: reg, Retries: fabric.DefaultRetries, Straggler: 30 * time.Second, Logf: nolog,
		}),
	})
	f.stops = append(f.stops, closeLocal(coord))
	cts := httptest.NewServer(httpapi.NewServer(coord, httpapi.WithLogger(nolog),
		httpapi.WithSpecs(specs), httpapi.WithMaps(st), httpapi.WithRegistry(reg)))
	f.stops = append(f.stops, cts.Close)
	f.coord = httpapi.NewClient(cts.URL)
	f.svc = f.coord
	if rec != nil {
		f.svc = tracedService{Service: f.coord, rec: rec, layer: "httpapi", sizes: true}
	}
	errs := make([]error, fleetWorkers)
	var wg sync.WaitGroup
	for i, r := range resolvers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = r.Resolve(lowered)
		}()
	}
	wg.Wait()
	return f, errors.Join(errs...)
}

// fleetStats is the counters read from every daemon's /v1/stats and
// the size of the coordinator's store directory.
type fleetStats struct {
	cacheHits, cacheLookups float64 // workers' measurement caches
	mapHits, mapLookups     float64 // coordinator map archive
	storeBytes              float64
}

func (f *fleet) stats(ctx context.Context) (fleetStats, error) {
	var s fleetStats
	for _, c := range append([]*httpapi.Client{f.coord}, f.workers...) {
		st, err := c.ServiceStats(ctx)
		if err != nil {
			return s, err
		}
		s.cacheHits += float64(st.Cache.Hits)
		s.cacheLookups += float64(st.Cache.Hits + st.Cache.Misses)
		if st.Store != nil {
			s.mapHits += float64(st.Store.MapHits)
			s.mapLookups += float64(st.Store.MapHits + st.Store.MapMisses)
		}
	}
	err := filepath.WalkDir(f.dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err == nil {
			s.storeBytes += float64(info.Size())
		}
		return err
	})
	return s, err
}

// add accumulates the growth from a to b.
func (s *fleetStats) add(a, b fleetStats) {
	s.cacheHits += b.cacheHits - a.cacheHits
	s.cacheLookups += b.cacheLookups - a.cacheLookups
	s.mapHits += b.mapHits - a.mapHits
	s.mapLookups += b.mapLookups - a.mapLookups
	s.storeBytes += b.storeBytes - a.storeBytes
}

// fleetLayers fills the fleet's per-layer metrics from the traced
// spans of the pass from from on and the summed /v1/stats growth.
// planned is the shards the coordinator planned for the fresh jobs.
func (p *passResult) fleetLayers(rec *recorder, from time.Time, st fleetStats, planned int) {
	to := p.to
	fresh := float64(len(p.fresh))
	p.layers["core.cache_hit_ratio"] = ratio(st.cacheHits, st.cacheLookups)
	p.layers["httpapi.submit_ms_p50"] = median(durations(rec.named("httpapi.submit", from, to), time.Millisecond))
	results := rec.named("httpapi.result", from, to)
	p.layers["httpapi.result_ms_p50"] = median(durations(results, time.Millisecond))
	var kb []float64
	for _, s := range results {
		kb = append(kb, float64(s.Bytes)/1024)
	}
	p.layers["httpapi.result_kb_p50"] = median(kb)
	p.layers["fabric.shard_ms_p50"] = median(durations(rec.named("worker.job", from, to), time.Millisecond))
	submits := float64(len(rec.named("worker.submit", from, to)))
	p.layers["fabric.shards_per_job"] = ratio(submits, fresh)
	p.layers["fabric.reissues"] = submits - float64(planned)
	p.layers["mapstore.map_hit_ratio"] = ratio(st.mapHits, st.mapLookups)
	p.layers["mapstore.kb_per_fresh_job"] = ratio(st.storeBytes/1024, fresh)
}
