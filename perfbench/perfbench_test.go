package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustmap/internal/engine"
	"robustmap/internal/service"
)

// testEnv runs against the repository checkout this module sits in.
func testEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: defaultSeed, seconds: time.Second, root: "..", work: t.TempDir()}
}

// runMap resolves and runs one request in process, returning the
// resolved sweep (for its oracle) and the map.
func runMap(t *testing.T, req service.Request, cfg engine.Config) (*service.ResolvedSweep, *service.Result) {
	t.Helper()
	resolver := service.NewEngineResolver(cfg)
	rs, err := resolver.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	l := service.NewLocal(service.LocalConfig{Resolver: resolver})
	defer func() { _ = l.Close(context.Background()) }()
	res, err := service.Run(context.Background(), l, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs, res
}

// clone deep-copies a result through its JSON encoding.
func clone(t *testing.T, res *service.Result) *service.Result {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	out := &service.Result{}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckGridRejectsCorruptMaps(t *testing.T) {
	// The committed builtin_2d baseline's own request: every cell is
	// shared with the baseline.
	req := service.Request{Plans: []string{"A1", "A2", "B1"}, Rows: 65536, MaxExp: 6, Grid2D: true}
	rs, res := runMap(t, req, engine.DefaultConfig())
	b, err := os.ReadFile(filepath.Join("..", "testdata", "maps", "builtin_2d.json"))
	if err != nil {
		t.Fatal(err)
	}
	baseline := &service.Result{}
	if err := json.Unmarshal(b, baseline); err != nil {
		t.Fatal(err)
	}
	if err := checkGrid(req, rs, res, baseline); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*service.Result){
		"time":      func(r *service.Result) { r.Map2D.Times[1][2][3]++ },
		"rows":      func(r *service.Result) { r.Map2D.Rows[4][5]++ },
		"zero time": func(r *service.Result) { r.Map2D.Times[0][0][0] = 0 },
		"plans":     func(r *service.Result) { r.Map2D.Plans[2] = "B2" },
		"missing":   func(r *service.Result) { r.Map2D = nil },
	} {
		bad := clone(t, res)
		corrupt(bad)
		if err := checkGrid(req, rs, bad, baseline); err == nil {
			t.Errorf("%s: corrupt map accepted", name)
		}
	}
	// Away from the default seed there is no baseline; the oracle still
	// catches wrong rows.
	bad := clone(t, res)
	bad.Map2D.Rows[0][6]--
	if err := checkGrid(req, rs, bad, nil); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Errorf("wrong rows without a baseline: got %v", err)
	}
}

func TestCheckJoinRejectsCorruptMaps(t *testing.T) {
	e := testEnv(t)
	req, cfg, err := joinMap.request(e)
	if err != nil {
		t.Fatal(err)
	}
	rs, res := runMap(t, req, cfg)
	if err := joinMap.check(e, req, rs, res); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*service.Result){
		"time":       func(r *service.Result) { r.Map1D.Times[2][5]++ },
		"rows":       func(r *service.Result) { r.Map1D.Rows[7]++ },
		"regret":     func(r *service.Result) { r.Regret1D = nil },
		"candidates": func(r *service.Result) { r.Candidates = r.Candidates[1:] },
	} {
		bad := clone(t, res)
		corrupt(bad)
		if err := joinMap.check(e, req, rs, bad); err == nil {
			t.Errorf("%s: corrupt map accepted", name)
		}
	}
}

func TestJoinOtherSeedPassesOracle(t *testing.T) {
	e := testEnv(t)
	e.seed = 7
	req, cfg, err := joinMap.request(e)
	if err != nil {
		t.Fatal(err)
	}
	rs, res := runMap(t, req, cfg)
	if err := joinMap.check(e, req, rs, res); err != nil {
		t.Fatal(err)
	}
	bad := clone(t, res)
	bad.Map1D.Rows[10]++
	if err := joinMap.check(e, req, rs, bad); err == nil {
		t.Error("wrong rows accepted at a non-default seed")
	}
}

func TestFleetMapMatchesReference(t *testing.T) {
	e := testEnv(t)
	req, cfg, err := fleetMap.request(e)
	if err != nil {
		t.Fatal(err)
	}
	resolver := service.NewEngineResolver(cfg)
	rs, err := resolver.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleetMap.reference(e, req, resolver, rs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := startFleet(cfg, nil, filepath.Join(e.work, "fleet"), req)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	for _, kind := range []string{"fresh", "repeat"} {
		res, err := service.Run(context.Background(), f.svc, req, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := fleetMap.check(e, req, rs, res); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if b, _ := json.Marshal(res); !bytes.Equal(b, want) {
			t.Errorf("%s: fleet map differs from the in-process reference", kind)
		}
	}
	st, err := f.stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.mapHits != 1 || st.mapLookups != 2 || st.storeBytes == 0 {
		t.Errorf("coordinator archive: %v hits of %v lookups, %v bytes; want the repeat served", st.mapHits, st.mapLookups, st.storeBytes)
	}
	res, err := service.Run(context.Background(), f.svc, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*service.Result){
		"rows":   func(r *service.Result) { r.Map2D.Rows[3][4]++ },
		"regret": func(r *service.Result) { r.Regret2D = nil },
		"axis":   func(r *service.Result) { r.Map2D.TB[0]++ },
	} {
		bad := clone(t, res)
		corrupt(bad)
		if err := fleetMap.check(e, req, rs, bad); err == nil {
			t.Errorf("%s: corrupt map accepted", name)
		}
	}
	bad := clone(t, res)
	bad.Map2D.Times[0][0][0]++
	if b, _ := json.Marshal(bad); bytes.Equal(b, want) {
		t.Error("a map with a changed time matches the reference")
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		want, pct float64
	}{{1, 1, 100}, {11, 11, 100}, {20, 20, 100}, {21, 11, 100 * 11.0 / 21}, {100, 90, 90}} {
		v, pct := tail(seq(c.n))
		if v != c.want || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", c.n, v, pct, c.want, c.pct)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	r := newRecorder()
	at := func(ns int64) time.Time { return r.t0.Add(time.Duration(ns)) }
	r.record("service.job", at(0), at(100), "job-1")
	r.record("engine.cell", at(10), at(30), "")
	r.record("engine.cell", at(20), at(50), "") // overlaps the first cell
	r.record("engine.cell", at(60), at(70), "")
	r.record("engine.cell", at(150), at(160), "") // outside the job
	r.adopt("service.job", "engine.cell")
	got := r.selfTime("service.job", at(0), at(200))
	if len(got) != 1 || got[0] != 50 {
		t.Errorf("self time = %v, want [50ns]", got)
	}
	if n := len(r.named("engine.cell", at(0), at(100))); n != 3 {
		t.Errorf("%d cells inside the job, want 3", n)
	}
}

func TestFoldTracesChargesHelpersToCallers(t *testing.T) {
	traces := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             robustmap/internal/record.(*Schema).Decode
             robustmap/internal/exec.(*TableScan).Next
-----------+-------------------------------------------------------
      20ms   runtime.nextFreeFast (inline)
             runtime.mallocgc
             robustmap/internal/exec.(*Sort).build
-----------+-------------------------------------------------------
      10ms   aeshashbody
             runtime.mapassign_faststr
             robustmap/internal/simclock.(*Clock).Advance
-----------+-------------------------------------------------------
      10ms   main.(*recorder).add
             main.tracedResolver.Resolve.func1
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   internal/poll.(*FD).Read
             net.(*conn).Read
-----------+-------------------------------------------------------
`
	shares, err := foldTraces([]byte(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"record": 0.3, "malloc": 0.2, "simclock": 0.1, "other": 0.1, "gc": 0.2, "net": 0.1}
	total := 0.0
	for _, b := range cpuBuckets {
		total += shares[b]
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("cpu.%s = %v, want %v", b, shares[b], want[b])
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
}

func TestBenchmarkJSONIsCurrent(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBenchmarkDoc(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with python3 perfbench/run.py --write-benchmark-json")
	}
}

func TestMixSeed(t *testing.T) {
	a, b := mixSeed(11, 1), mixSeed(11, 2)
	if a <= 0 || b <= 0 || a == b || mixSeed(12, 1) == a {
		t.Errorf("mixSeed: %d %d %d", a, b, mixSeed(12, 1))
	}
}
