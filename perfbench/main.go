// Command perfbench is robustmap's benchmark: it draws robustness maps
// through the entry points users call — service.Local and service.Run
// in process, the httpapi server and client, fabric.Coordinator and
// mapstore — checks every map it produces, and prints each metric by
// name and unit, ending with one JSON line.
//
//	perfbench -workload paper-map|join-map|fleet-map -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// runs the workload twice, untraced and then traced (spans, job
// statuses, service stats, memory statistics and a CPU profile), and
// reports the per-layer metrics plus the tracing overhead. NOTES.md
// explains the workloads, metrics and layer map; run.py builds and runs
// it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// defaultSeed is engine.DefaultConfig().Seed, the seed the committed
	// map baselines were drawn at; the baseline checks run at it.
	defaultSeed = 2009
	// jobDeadline is the per-job deadline: a job still unfinished after
	// it is cancelled and counted as failed.
	jobDeadline = 30 * time.Second
)

// env is one run's settings.
type env struct {
	seed    int64
	seconds time.Duration
	// root is the repository checkout (workload inputs and baselines);
	// work is scratch space for stores, traces and profiles.
	root, work string
}

var runners = map[string]func(*env, *recorder) *passResult{
	"paper-map": paperMap.runLocal,
	"join-map":  joinMap.runLocal,
	"fleet-map": fleetMap.runFleet,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "paper-map, join-map or fleet-map")
		seed     = fs.Int64("seed", defaultSeed, "workload seed: the engine seed and the join table seeds")
		seconds  = fs.Int("seconds", runSeconds, "how long one pass measures")
		trace    = fs.Int("trace", 0, "1 = report per-layer metrics from an extra traced pass")
		root     = fs.String("root", ".", "repository checkout holding examples/ and testdata/")
		work     = fs.String("work", ".bench_build/work", "scratch directory for stores, traces and profiles")
		describe = fs.Bool("describe", false, "print the BENCHMARK.json document and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		if err := writeBenchmarkDoc(stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	runner, ok := runners[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload paper-map|join-map|fleet-map, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, root: *root, work: *work}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	untraced := runner(e, nil)
	passes := []*passResult{untraced}
	metrics := untraced.endToEnd()
	var units map[string]string
	if *trace == 1 {
		runtime.GC()
		traced, err := tracedPass(e, *workload, runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced pass: %v\n", err)
			return 1
		}
		passes = append(passes, traced)
		fmt.Fprintf(stdout, "untraced pass:\n")
		printMetrics(stdout, metrics, endToEnd, untraced)
		tm := traced.endToEnd()
		fmt.Fprintf(stdout, "traced pass:\n")
		printMetrics(stdout, tm, endToEnd, traced)
		layers := traced.layers
		for _, m := range endToEnd {
			// Overhead is the share by which tracing worsened the metric.
			d := tm[m.Name] - metrics[m.Name]
			if m.Better == "higher" {
				d = -d
			}
			layers["trace.overhead."+m.Name] = ratio(d, metrics[m.Name])
		}
		metrics = layers
		units = unitsOf(perLayer)
		fmt.Fprintf(stdout, "per-layer metrics:\n")
		printMetrics(stdout, metrics, perLayer, nil)
	} else {
		units = unitsOf(endToEnd)
		printMetrics(stdout, metrics, endToEnd, untraced)
	}

	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: true, Metrics: map[string]json.RawMessage{}}
	for _, p := range passes {
		out.Attempted += p.attempted
		out.Failed += p.failed
		for _, msg := range p.problems {
			fmt.Fprintf(stdout, "FAILED: %s\n", msg)
		}
		out.Correct = out.Correct && len(p.problems) == 0
	}
	fmt.Fprintf(stdout, "error_rate %v fraction (%d of %d jobs failed, refused, late or wrong)\n",
		ratio(float64(out.Failed), float64(out.Attempted)), out.Failed, out.Attempted)
	for name, unit := range units {
		b, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{metrics[name], unit})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		out.Metrics[name] = b
	}
	if out.Attempted == 0 {
		out.Correct = false
		out.Attempted = 1
		out.Failed = 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

// tracedPass runs the workload once more with the recorder and a CPU
// profile on, then folds the profile into the cpu.* shares and writes
// the spans out.
func tracedPass(e *env, workload string, runner func(*env, *recorder) *passResult) (*passResult, error) {
	profPath := filepath.Join(e.work, workload+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	rec := newRecorder()
	p := runner(e, rec)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(e.work, workload+".trace.json")); err != nil {
		return nil, err
	}
	shares, err := foldProfile("go", profPath)
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		p.layers["cpu."+b] = v
	}
	for _, m := range perLayer {
		if _, ok := p.layers[m.Name]; !ok && !strings.HasPrefix(m.Name, "trace.") {
			p.layers[m.Name] = 0
		}
	}
	return p, nil
}

func unitsOf(defs []metricDef) map[string]string {
	u := map[string]string{}
	for _, d := range defs {
		u[d.Name] = d.Unit
	}
	return u
}

// printMetrics prints one line per metric; tails carry their percentile
// and sample count when p is given.
func printMetrics(w io.Writer, metrics map[string]float64, defs []metricDef, p *passResult) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	if p == nil {
		sort.Strings(names)
	}
	units := unitsOf(defs)
	for _, n := range names {
		line := fmt.Sprintf("  %-34s %s %s", n, strconv.FormatFloat(metrics[n], 'g', -1, 64), units[n])
		if p != nil {
			switch n {
			case "setup_s":
				line += fmt.Sprintf("  (median of %d set-ups, %s)", len(p.setups), rangeOf(p.setups, "s"))
			case "cells_per_s":
				line += fmt.Sprintf("  (%d-cell maps; p50 of n=%d fresh jobs, %s)", p.cells, len(p.fresh), rangeOf(p.fresh, "ms"))
			case "repeat_job_ms_p50":
				line += fmt.Sprintf("  (p50 of n=%d, %s)", len(p.repeat), rangeOf(p.repeat, "ms"))
			}
		}
		fmt.Fprintln(w, line)
	}
}

// rangeOf prints the smallest and largest of xs.
func rangeOf(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "no samples"
	}
	s := sortedCopy(xs)
	return fmt.Sprintf("%.4g-%.4g %s", s[0], s[len(s)-1], unit)
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the high-water mark at the current resident
// size, so one round's peak does not carry into the next.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200) // best effort: Linux only
}
