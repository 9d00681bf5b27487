// Command robustmap regenerates the paper's figures as robustness maps.
//
// Usage:
//
//	robustmap -list
//	robustmap -exp fig1 [-out DIR] [-rows N] [-small]
//	robustmap -all [-out DIR]
//	robustmap -exp fig7 -server http://127.0.0.1:8421   # sweeps on a daemon
//	robustmap -workload scenario.json [-out DIR]        # custom workload map
//	robustmap -query query.json [-out DIR]              # optimizer regret map
//	robustmap -query query.json -explain [-sel-a F -sel-b F]
//	robustmap diff A.json B.json                        # compare two maps
//
// The diff subcommand loads two finished maps — bare result JSON or
// stored envelopes from a map store's maps/ directory — and reports
// winner-grid, rows-grid, landmark, and regret deltas. It exits 0 when
// the maps are equivalent, 1 on any difference, 2 on a load error:
// the primitive the CI map-regression gate is built on.
//
// -store DIR (with -workload or -query) persists measurements and the
// finished map in a content-addressed store: re-running the identical
// spec is served from disk without measuring anything.
//
// Each experiment writes its artifacts (summary.txt, data.csv, map.txt,
// map.svg, map.ppm, and grids.json where applicable) under DIR/<id>/ and
// prints the summary with the paper-claim checks to stdout.
//
// -query plans a logical query spec instead of measuring hand-written
// plans: the optimizer enumerates candidate plans over the query's
// catalog, every candidate is measured across the sweep, and the
// artifacts overlay the optimizer's estimated-cost pick against the
// per-point oracle winner (the regret and non-robustness maps).
// -explain skips the sweep and prints the candidates with their
// estimated costs at one selectivity point.
//
// Experiments run under a signal-aware context: the first SIGINT/SIGTERM
// cancels the sweep in flight (workers drain, no partial artifacts are
// written) and the command exits 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"robustmap/internal/cliutil"
	"robustmap/internal/core"
	"robustmap/internal/engine"
	"robustmap/internal/experiments"
	"robustmap/internal/httpapi"
	"robustmap/internal/mapdiff"
	"robustmap/internal/mapstore"
	"robustmap/internal/optimizer"
	"robustmap/internal/plan"
	"robustmap/internal/service"
	"robustmap/internal/spec"
	"robustmap/internal/vis"
)

func main() {
	// Subcommand dispatch before flag.Parse: `robustmap diff A B` has its
	// own flag set and exit-code contract (0 identical, 1 differ, 2 error).
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(runDiff(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		exp      = flag.String("exp", "", "experiment id to run (fig1..fig10, sortspill)")
		all      = flag.Bool("all", false, "run every experiment")
		out      = flag.String("out", "out", "output directory")
		rows     = flag.Int64("rows", 0, "override table cardinality (default: study default)")
		small    = flag.Bool("small", false, "use the reduced test-scale study")
		parallel = flag.Int("parallel", 1, "sweep worker goroutines (1 = serial, -1 = all CPUs); figures are identical at any setting")
		refine   = flag.Bool("refine", false, "adaptive multi-resolution sweeps: measure the coarse lattice, winner boundaries, and landmarks; interpolate constant regions")
		cache    = flag.Int("cache", 0, "measurement cache entries shared across sweeps (0 = off, -1 = unbounded)")
		progress = flag.Bool("progress", false, "render a live measured-cell count line on stderr for every sweep")
		server   = flag.String("server", "", "run the study's standard sweeps as jobs on the robustmapd at this base URL (local experiments still render the artifacts)")
		storeDir = flag.String("store", "", "with -workload/-query: persist measurements and finished maps in this directory; identical reruns are served from disk")
		workload = flag.String("workload", "", "render a robustness map for a declarative workload spec (JSON file) instead of a paper experiment")
		query    = flag.String("query", "", "render an optimizer regret map for a logical query spec (JSON file) instead of a paper experiment")
		explain  = flag.Bool("explain", false, "with -query: print the candidate plans and their estimated costs at one point instead of sweeping")
		selA     = flag.Float64("sel-a", 0.01, "with -explain: selectivity fraction of predicate a, in (0,1]")
		selB     = flag.Float64("sel-b", 0.01, "with -explain: selectivity fraction of predicate b, in (0,1]")
	)
	flag.Parse()
	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "error: "+format+"\n", args...)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			d, _ := experiments.Lookup(id)
			fmt.Printf("%-10s %s\n", id, d.Paper)
		}
		return
	}
	for _, err := range []error{
		cliutil.ValidateRowsOverride(*rows),
		cliutil.ValidateParallelism(*parallel),
		cliutil.ValidateCacheSize(*cache),
	} {
		if err != nil {
			fatalf("%v", err)
		}
	}
	if *query != "" {
		if *all || *exp != "" || *small || *workload != "" {
			fatalf("-query plans a logical query instead of a paper experiment; drop -exp/-all/-small/-workload")
		}
		if *explain {
			runExplain(*query, *rows, *selA, *selB, fatalf)
			return
		}
		runQuery(*query, *out, *rows, *parallel, *refine, *cache, *server, *storeDir, *progress, fatalf)
		return
	}
	if *explain {
		fatalf("-explain requires -query")
	}
	if *workload != "" {
		if *all || *exp != "" || *small {
			fatalf("-workload runs a workload spec instead of a paper experiment; drop -exp/-all/-small")
		}
		runWorkload(*workload, *out, *rows, *parallel, *refine, *cache, *server, *storeDir, *progress, fatalf)
		return
	}
	if *storeDir != "" {
		fatalf("-store applies to -workload and -query runs; paper experiments measure through the study directly")
	}
	if !*all && *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Resolve experiment ids before paying for the system build, so an
	// unknown figure name fails fast with a clear message.
	ids := []string{*exp}
	if *all {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if _, ok := experiments.Lookup(id); !ok {
			fatalf("unknown experiment %q (try -list)", id)
		}
	}

	cfg := experiments.DefaultStudyConfig()
	if *small {
		cfg = experiments.SmallStudyConfig()
	}
	if *rows > 0 {
		cfg.Rows = *rows
		cfg.Engine.Rows = *rows
	}
	cfg.Parallelism = *parallel
	cfg.Refine = *refine
	cfg.CacheSize = *cache
	if *progress {
		cfg.Progress = cliutil.ProgressLine(os.Stderr)
	}
	if *server != "" {
		cfg.Service = httpapi.NewClient(*server)
	}

	fmt.Fprintf(os.Stderr, "building systems A, B, C (%d rows)...\n", cfg.Rows)
	study, err := experiments.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	failed := false
	var arts []*experiments.Artifacts
	for _, id := range ids {
		def, _ := experiments.Lookup(id)
		fmt.Fprintf(os.Stderr, "running %s...\n", id)
		art, err := def.RunContext(ctx, study)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "\ninterrupted: %s cancelled, no artifacts written\n", id)
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		arts = append(arts, art)
		fmt.Println(art.Summary)
		if !art.Passed() {
			failed = true
		}
		if err := writeArtifacts(*out, art); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	if *all {
		report := experiments.HTMLReport(
			fmt.Sprintf("Robustness maps (%d rows)", cfg.Rows), arts)
		path := filepath.Join(*out, "report.html")
		if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	if st := study.CacheStats(); *cache != 0 {
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d evictions, %d entries\n",
			st.Hits, st.Misses, st.Evictions, st.Size)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "some paper-claim checks FAILED")
		os.Exit(1)
	}
}

func writeArtifacts(dir string, art *experiments.Artifacts) error {
	d := filepath.Join(dir, art.ID)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	files := map[string]string{
		"summary.txt": art.Summary,
		"data.csv":    art.CSV,
		"map.txt":     art.ASCII,
		"map.svg":     art.SVG,
	}
	if art.PPM != "" {
		files["map.ppm"] = art.PPM
	}
	if art.JSON != "" {
		files["grids.json"] = art.JSON
	}
	for name, content := range files {
		if content == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(d, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload renders a robustness map for a declarative workload spec:
// the workload is submitted as a job (locally, or to -server), and the
// resulting maps are written as the usual artifact set under
// out/<workload name>/. This is the "any scenario without recompiling"
// path — the same spec file drives cmd/sweep, the service API, and a
// remote daemon with identical results.
func runWorkload(path, out string, rows int64, parallel int, refine bool,
	cache int, server, storeDir string, progress bool, fatalf func(string, ...any)) {

	ws, err := spec.LoadFile(path)
	if err != nil {
		fatalf("%v", err)
		return
	}
	req := service.Request{
		Workload:    ws,
		Rows:        rows, // already validated non-negative; 0 defers to the workload
		Parallelism: parallel,
		Refine:      refine,
	}
	// Validate the whole spec — structure AND compilability — before the
	// command touches anything: a workload that cannot run must not
	// leave an output directory behind, and must not reach a daemon.
	if err := req.Validate(); err != nil {
		fatalf("%v", err)
		return
	}
	if _, err := plan.CompileWorkload(ws); err != nil {
		fatalf("%v", err)
		return
	}

	var (
		svc   service.Service
		local *service.Local
	)
	if server != "" {
		if cache != 0 {
			fmt.Fprintln(os.Stderr, "note: -cache is ignored with -server; the daemon manages its own cache")
		}
		if storeDir != "" {
			fmt.Fprintln(os.Stderr, "note: -store is ignored with -server; the daemon manages its own store")
		}
		svc = httpapi.NewClient(server)
	} else {
		st := openStore(storeDir, fatalf)
		local = service.NewLocal(service.LocalConfig{Workers: 1, CacheSize: cache, Store: st})
		defer func() {
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = local.Close(cctx)
			_ = st.Close()
		}()
		svc = local
	}
	var onProgress core.ProgressFunc
	if progress {
		onProgress = cliutil.ProgressLine(os.Stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "running workload %q (%d plans)...\n", ws.Name, len(req.EffectivePlans()))
	res, err := service.Run(ctx, svc, req, onProgress)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "\ninterrupted: workload %q cancelled, no artifacts written\n", ws.Name)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	art := workloadArtifacts(ws, req, res)
	fmt.Println(art.Summary)
	if err := writeArtifacts(out, art); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(out, art.ID))
}

// loadQuery loads a query spec and plans it: enumeration plus a full
// compile of every candidate, so an unusable query fails here — before
// any output directory is created or a daemon contacted.
func loadQuery(path string, fatalf func(string, ...any)) (*spec.QuerySpec, []optimizer.Candidate) {
	q, err := spec.LoadQueryFile(path)
	if err != nil {
		fatalf("%v", err)
		return nil, nil
	}
	cands, err := optimizer.Enumerate(q)
	if err != nil {
		fatalf("%v", err)
		return nil, nil
	}
	if _, err := plan.CompileWorkload(optimizer.Workload(q, cands)); err != nil {
		fatalf("%v", err)
		return nil, nil
	}
	return q, cands
}

// runQuery plans a logical query spec and renders its optimizer regret
// map: the enumerated candidates are measured across the sweep (locally
// or on -server), and the artifacts overlay the per-point pick against
// the oracle winner.
func runQuery(path, out string, rows int64, parallel int, refine bool,
	cache int, server, storeDir string, progress bool, fatalf func(string, ...any)) {

	q, cands := loadQuery(path, fatalf)
	req := service.Request{
		Query:       q,
		Rows:        rows,
		Parallelism: parallel,
		Refine:      refine,
	}
	if err := req.Validate(); err != nil {
		fatalf("%v", err)
		return
	}

	var (
		svc   service.Service
		local *service.Local
	)
	if server != "" {
		if cache != 0 {
			fmt.Fprintln(os.Stderr, "note: -cache is ignored with -server; the daemon manages its own cache")
		}
		if storeDir != "" {
			fmt.Fprintln(os.Stderr, "note: -store is ignored with -server; the daemon manages its own store")
		}
		svc = httpapi.NewClient(server)
	} else {
		st := openStore(storeDir, fatalf)
		local = service.NewLocal(service.LocalConfig{Workers: 1, CacheSize: cache, Store: st})
		defer func() {
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = local.Close(cctx)
			_ = st.Close()
		}()
		svc = local
	}
	var onProgress core.ProgressFunc
	if progress {
		onProgress = cliutil.ProgressLine(os.Stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "planning query %q (%d candidate plans)...\n", q.Name, len(cands))
	res, err := service.Run(ctx, svc, req, onProgress)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "\ninterrupted: query %q cancelled, no artifacts written\n", q.Name)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	art := experiments.QueryArtifacts(q, res)
	art.ID = artifactDirName(q.Name)
	fmt.Println(art.Summary)
	if err := writeArtifacts(out, art); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(out, art.ID))
}

// runExplain prints the optimizer's view of a query at one selectivity
// point: every candidate plan with its estimated cost, the pick marked.
// Pure cost-model arithmetic — nothing is measured, so it answers
// "what would the optimizer do here?" instantly.
func runExplain(path string, rows int64, selA, selB float64, fatalf func(string, ...any)) {
	q, cands := loadQuery(path, fatalf)
	for _, s := range []float64{selA, selB} {
		if s <= 0 || s > 1 {
			fatalf("-sel-a/-sel-b must be selectivity fractions in (0,1], got %g", s)
			return
		}
	}
	if rows == 0 {
		rows = q.Catalog.Table().Rows
		if rows == 0 {
			rows = engine.DefaultConfig().Rows
		}
	}
	ta := int64(selA * float64(rows))
	tb := int64(-1)
	if q.NeedsTB() {
		tb = int64(selB * float64(rows))
	}

	model := optimizer.NewModel(q, rows, engine.DefaultConfig().Seed)
	ests := model.Explain(cands, ta, tb)
	fmt.Printf("query %s over %d rows: a <= %d (%.4g of rows)", q.Name, rows, ta, selA)
	if tb >= 0 {
		fmt.Printf(", b <= %d (%.4g of rows)", tb, selB)
	}
	fmt.Printf("\n%d candidate plans, estimated costs (simclock units):\n\n", len(ests))
	for _, e := range ests {
		mark := "  "
		switch {
		case e.Picked:
			mark = "=>"
		case !e.Eligible:
			mark = " -"
		}
		cost := fmt.Sprintf("%12v", e.Cost)
		if !e.Eligible {
			cost = "  ineligible"
		}
		fmt.Printf("%s %-18s %s  %s\n", mark, e.ID, cost, e.Description)
	}
	fmt.Printf("\n=> marks the optimizer's pick;  - marks plans ineligible at this point.\n")
}

// openStore opens the persistent map store at dir, or returns nil when
// no -store was given. A store locked by another process degrades to an
// inert pass-through inside mapstore (the run still completes); only an
// unusable directory is fatal, because the user explicitly asked for
// persistence.
func openStore(dir string, fatalf func(string, ...any)) *mapstore.Store {
	if dir == "" {
		return nil
	}
	st, err := mapstore.Open(dir, mapstore.Config{
		EngineVersion: engine.MeasurementVersion,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "store: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatalf("opening store %s: %v", dir, err)
		return nil
	}
	return st
}

// runDiff implements `robustmap diff A B`: load two finished maps (bare
// result JSON or store envelopes), compare them structurally, and report
// every drifted dimension. Exit codes: 0 identical, 1 different, 2 on
// bad usage or unloadable inputs — so CI can gate on the comparison.
func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("robustmap diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the diff report as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: robustmap diff [-json] A.json B.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	resA, envA, err := mapdiff.LoadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	resB, envB, err := mapdiff.LoadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	for i, env := range []*mapstore.Envelope{envA, envB} {
		if env != nil {
			fmt.Fprintf(stderr, "%s: store envelope key=%s engine=%s kind=%s\n",
				fs.Arg(i), env.Key, env.Engine, env.Scope.Kind)
		}
	}

	report := mapdiff.Compare(resA, resB)
	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
	case report.Identical():
		fmt.Fprintln(stdout, "maps identical")
	default:
		for _, line := range report.Lines() {
			fmt.Fprintln(stdout, line)
		}
		fmt.Fprintf(stdout, "%d finding(s) across %d dimension(s)\n",
			len(report.Lines()), len(report.Sections))
	}
	if report.Identical() {
		return 0
	}
	return 1
}

// artifactDirName maps a workload name onto a safe single path
// element: anything outside [A-Za-z0-9._-] becomes '-', and names that
// would resolve to the current or parent directory fall back to
// "workload".
func artifactDirName(name string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, name)
	if strings.Trim(safe, ".-") == "" {
		return "workload"
	}
	return safe
}

// workloadArtifacts renders a workload job's maps into the standard
// artifact set.
func workloadArtifacts(ws *spec.WorkloadSpec, req service.Request, res *service.Result) *experiments.Artifacts {
	ids := req.EffectivePlans()
	renderRows := req.EffectiveRows(engine.DefaultConfig().Rows)
	fracs, _ := core.SweepAxis(renderRows, req.EffectiveMaxExp())
	labels := experiments.FractionLabels(fracs)
	art := &experiments.Artifacts{
		// The spec name is untrusted input about to become a directory
		// under -out; sanitize it so a hostile or merely creative name
		// cannot escape the output tree.
		ID:    artifactDirName(ws.Name),
		Title: fmt.Sprintf("workload %s", ws.Name),
	}
	var sum strings.Builder
	fmt.Fprintf(&sum, "workload %s: %d plans, %d rows, axis 2^-%d..1\n",
		ws.Name, len(ids), renderRows, req.EffectiveMaxExp())
	if res.Map2D != nil {
		first := ids[0]
		bins := core.BinGridAbsolute(res.Map2D.PlanGrid(first), core.DefaultAbsoluteBins())
		binLabels := core.DefaultAbsoluteBins().Labels()
		title := fmt.Sprintf("workload %s: plan %s absolute cost", ws.Name, first)
		art.ASCII = vis.HeatMapASCII(bins, vis.GlyphsAbsolute, labels, labels,
			title, "absolute time", binLabels)
		art.SVG = vis.HeatMapSVG(bins, vis.PaletteAbsolute, labels, labels,
			title, "selectivity a", "selectivity b", binLabels)
		art.PPM = vis.HeatMapPPM(bins, vis.PaletteAbsolute, 8)
		winners := res.Map2D.WinnerGrid()
		counts := map[string]int{}
		total := 0
		for _, row := range winners {
			for _, w := range row {
				counts[res.Map2D.Plans[w]]++
				total++
			}
		}
		for _, id := range ids {
			if n := counts[id]; n > 0 {
				fmt.Fprintf(&sum, "  %-12s wins %5.1f%% of the grid\n",
					id, 100*float64(n)/float64(total))
			}
		}
	} else if res.Map1D != nil {
		series := map[string][]time.Duration{}
		for _, id := range ids {
			series[id] = res.Map1D.Series(id)
		}
		art.ASCII = vis.LineChartASCII(fracs, series, 72, 20,
			fmt.Sprintf("workload %s, %d rows", ws.Name, renderRows))
		art.SVG = vis.LineChartSVG(fracs, series,
			fmt.Sprintf("workload %s, %d rows", ws.Name, renderRows),
			"selectivity fraction", "execution time")
		sum.WriteString(experiments.CurveSummary(res.Map1D, ids))
	}
	art.Summary = sum.String()
	return art
}
