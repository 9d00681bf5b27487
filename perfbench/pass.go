package main

import (
	"fmt"
	"runtime"
	"time"
)

// passResult is what one pass of a workload measured.
type passResult struct {
	// to ends the pass; setupWindows are its set-ups.
	to           time.Time
	setups       []float64 // s
	setupWindows [][2]time.Time
	// fresh and repeat are job latencies in ms, submit to decoded
	// result; a failed job counts as at least jobDeadline.
	fresh, repeat     []float64
	cells             int     // cells of one map
	peakRSS           float64 // MB: the median round's peak
	attempted, failed int
	problems          []string
	// layers holds the per-layer metrics of a traced pass.
	layers map[string]float64
}

func newPassResult() *passResult {
	return &passResult{layers: map[string]float64{}}
}

func (p *passResult) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// moreSetups says whether a pass should set up once more: at least
// three times, and while set-ups are cheap until they add up to a
// second, so setup_s is a median of several.
func (p *passResult) moreSetups() bool {
	return len(p.setups) < 3 || (sum(p.setups) < 1 && len(p.setups) < 15)
}

func (p *passResult) addSetup(t0, t1 time.Time) {
	p.setups = append(p.setups, t1.Sub(t0).Seconds())
	p.setupWindows = append(p.setupWindows, [2]time.Time{t0, t1})
}

// addJob records one attempted job. Failures count in the latency
// samples as missing the deadline.
func (p *passResult) addJob(fresh bool, el time.Duration, err error) {
	p.attempted++
	if err != nil {
		p.failed++
		kind := "repeat"
		if fresh {
			kind = "fresh"
		}
		p.fail("%s job: %v", kind, err)
		el = max(el, jobDeadline)
	}
	ms := float64(el) / float64(time.Millisecond)
	if fresh {
		p.fresh = append(p.fresh, ms)
	} else {
		p.repeat = append(p.repeat, ms)
	}
}

// endToEnd computes the end-to-end metrics.
func (p *passResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":           median(p.setups),
		"cells_per_s":       ratio(float64(p.cells), median(p.fresh)/1000),
		"repeat_job_ms_p50": median(p.repeat),
		"peak_rss_mb":       p.peakRSS,
	}
}

// memDelta sums runtime.MemStats deltas over the measured intervals.
type memDelta struct {
	before                   runtime.MemStats
	allocBytes, mallocs, gcs uint64
}

func (m *memDelta) begin(on bool) {
	if on {
		runtime.ReadMemStats(&m.before)
	}
}

func (m *memDelta) end(on bool) {
	if !on {
		return
	}
	var a runtime.MemStats
	runtime.ReadMemStats(&a)
	m.allocBytes += a.TotalAlloc - m.before.TotalAlloc
	m.mallocs += a.Mallocs - m.before.Mallocs
	m.gcs += uint64(a.NumGC - m.before.NumGC)
}

// jobLayers fills the metrics both paths derive from the spans of the
// pass from from on: each fresh job's own time, the service's queue,
// Resolve time per set-up, the cell spans, and the memory statistics
// per measured cell. layer names the traced service whose job intervals
// the resolve and cell spans fall in; one job runs at a time, so every
// such span inside a job's run interval belongs to it.
func (p *passResult) jobLayers(rec *recorder, layer string, from time.Time, r rounds) {
	job := layer + ".job"
	rec.adopt(job, "service.resolve", "engine.cell")
	var secs []float64
	for _, fj := range r.fresh {
		for _, d := range rec.selfTime(job, fj[0], fj[1]) {
			secs = append(secs, d.Seconds())
		}
	}
	p.layers["core.self_s"] = median(secs)
	p.layers["service.queue_ms_p50"] = median(durations(rec.named(layer+".queue", from, p.to), time.Millisecond))
	var resolve time.Duration
	for _, w := range p.setupWindows {
		for _, s := range rec.named("service.resolve", w[0], w[1]) {
			resolve += s.dur()
		}
	}
	p.layers["service.resolve_s"] = ratio(resolve.Seconds(), float64(len(p.setupWindows)))
	cells := durations(rec.named("engine.cell", from, p.to), time.Microsecond)
	p.layers["engine.cell_us_p50"] = median(cells)
	p.layers["engine.cell_us_tail"], _ = tail(cells)
	n := float64(len(cells))
	p.layers["engine.cells"] = n
	p.layers["runtime.alloc_kb_per_cell"] = ratio(float64(r.mem.allocBytes)/1024, n)
	p.layers["runtime.mallocs_per_cell"] = ratio(float64(r.mem.mallocs), n)
	p.layers["runtime.gc_cycles"] = float64(r.mem.gcs)
}
