package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"robustmap/internal/core"
	"robustmap/internal/service"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder started; Parent is the index+1 of the enclosing span (0 for
// none or unknown).
type span struct {
	Name   string        `json:"name"`
	Start  int64         `json:"start_ns"`
	End    int64         `json:"end_ns"`
	Parent int           `json:"parent,omitempty"`
	Job    service.JobID `json:"job,omitempty"`
	// Bytes is the encoded size of what the call returned, where the
	// span measures one (client result fetches).
	Bytes int `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span of a traced pass in memory; write saves
// them when the pass ends. Safe for concurrent use.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) record(name string, start, end time.Time, job service.JobID) {
	r.add(span{Name: name, Start: r.ns(start), End: r.ns(end), Job: job})
}

// named returns the spans called name that lie inside [from, to).
func (r *recorder) named(name string, from, to time.Time) []span {
	lo, hi := r.ns(from), r.ns(to)
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name && s.Start >= lo && s.End <= hi {
			out = append(out, s)
		}
	}
	return out
}

// adopt sets the parent of every child-named span that lies inside one
// of the parent-named spans. Parents must not overlap each other (one
// job at a time).
func (r *recorder) adopt(parent string, children ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	isChild := map[string]bool{}
	for _, c := range children {
		isChild[c] = true
	}
	for pi, p := range r.spans {
		if p.Name != parent {
			continue
		}
		for ci := range r.spans {
			c := &r.spans[ci]
			if isChild[c.Name] && c.Start >= p.Start && c.End <= p.End {
				c.Parent = pi + 1
			}
		}
	}
}

// selfTime returns, for each parent-named span inside [from, to), its
// duration minus the part covered by the union of the spans that name
// it as their parent. The union matters: cells run two at a time.
func (r *recorder) selfTime(parent string, from, to time.Time) []time.Duration {
	lo, hi := r.ns(from), r.ns(to)
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []time.Duration
	for i, p := range r.spans {
		if p.Name == parent && p.Start >= lo && p.End <= hi {
			out = append(out, p.dur()-time.Duration(unionLen(kids[i+1])))
		}
	}
	return out
}

// unionLen is the total length covered by the half-open intervals.
func unionLen(iv [][2]int64) int64 {
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write saves the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedResolver decorates a service.Resolver: it times Resolve (system
// builds, spec compile, optimizer planning) and every Measure call of
// the sources it returns. Measurements pass through unchanged.
type tracedResolver struct {
	service.Resolver
	rec *recorder
}

func (t tracedResolver) Resolve(req service.Request) (*service.ResolvedSweep, error) {
	start := time.Now()
	rs, err := t.Resolver.Resolve(req)
	t.rec.record("service.resolve", start, time.Now(), "")
	if err != nil {
		return nil, err
	}
	for i := range rs.Sources {
		measure := rs.Sources[i].Measure
		rs.Sources[i].Measure = func(ta, tb int64) core.Measurement {
			s := time.Now()
			m := measure(ta, tb)
			t.rec.record("engine.cell", s, time.Now(), "")
			return m
		}
	}
	return rs, nil
}

// tracedService decorates a service.Service. It times Submit and
// Result under "<layer>.submit" and "<layer>.result"; after a result it
// reads the job's status and records the service's own queue and run
// intervals as "<layer>.queue" and "<layer>.job".
type tracedService struct {
	service.Service
	rec   *recorder
	layer string
	// sizes records the encoded size of each result on its span.
	sizes bool
}

func (t tracedService) Submit(ctx context.Context, req service.Request) (service.JobID, error) {
	start := time.Now()
	id, err := t.Service.Submit(ctx, req)
	if err == nil {
		t.rec.record(t.layer+".submit", start, time.Now(), id)
	}
	return id, err
}

func (t tracedService) Result(ctx context.Context, id service.JobID) (*service.Result, error) {
	start := time.Now()
	res, err := t.Service.Result(ctx, id)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	s := span{Name: t.layer + ".result", Start: t.rec.ns(start), End: t.rec.ns(end), Job: id}
	if t.sizes {
		if b, merr := json.Marshal(res); merr == nil {
			s.Bytes = len(b)
		}
	}
	t.rec.add(s)
	if st, serr := t.Service.Status(ctx, id); serr == nil && !st.StartedAt.IsZero() {
		t.rec.record(t.layer+".queue", st.SubmittedAt, st.StartedAt, id)
		t.rec.record(t.layer+".job", st.StartedAt, st.FinishedAt, id)
	}
	return res, nil
}

// ServiceStats forwards /v1/stats to the decorated service.
func (t tracedService) ServiceStats(ctx context.Context) (service.Stats, error) {
	if src, ok := t.Service.(service.StatsSource); ok {
		return src.ServiceStats(ctx)
	}
	return service.Stats{}, service.ErrUnsupported
}

// durations converts spans to their lengths in the given unit.
func durations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}
