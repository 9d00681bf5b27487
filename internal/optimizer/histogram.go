// Equi-depth histograms: optional per-column statistics behind the
// query's histograms flag. The default model assumes uniform value
// distributions — deliberately, so skewed (Zipf) columns produce the
// regret a textbook optimizer's uniformity assumption produces. The
// histograms close exactly that gap: they are built from the same
// deterministic generator the engine loads tables from, so a model
// holding them estimates skewed selectivities about right, and a map
// can grade the two models against each other on the same measured
// grid.
package optimizer

import (
	"sort"

	"robustmap/internal/datagen"
	"robustmap/internal/record"
)

// HistogramBuckets is the equi-depth bucket count. 64 buckets resolve
// selectivities to ~1.6% within a bucket, far below the regret
// threshold maps care about.
const HistogramBuckets = 64

// Histogram is an equi-depth histogram over one generated int64
// column: bucket upper bounds holding ~n/buckets values each.
type Histogram struct {
	min    int64
	bounds []int64 // inclusive upper bound per bucket, ascending
	n      int64
}

// NewHistogram builds an equi-depth histogram from a column's values
// (the slice is not modified).
func NewHistogram(vals []int64, buckets int) *Histogram {
	if len(vals) == 0 || buckets <= 0 {
		return nil
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if buckets > len(sorted) {
		buckets = len(sorted)
	}
	h := &Histogram{min: sorted[0], n: int64(len(sorted))}
	for b := 1; b <= buckets; b++ {
		h.bounds = append(h.bounds, sorted[b*len(sorted)/buckets-1])
	}
	return h
}

// LessThan estimates the fraction of the column's values strictly
// below v: whole buckets below, plus linear interpolation inside the
// bucket containing v.
func (h *Histogram) LessThan(v int64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if v <= h.min {
		return 0
	}
	if v > h.bounds[len(h.bounds)-1] {
		return 1
	}
	// First bucket whose upper bound reaches v.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	lo := h.min
	if i > 0 {
		lo = h.bounds[i-1]
	}
	frac := float64(i)
	if h.bounds[i] > lo {
		frac += float64(v-lo) / float64(h.bounds[i]-lo)
	}
	return frac / float64(len(h.bounds))
}

// BuildHistograms generates the catalog's tables through the same
// deterministic generator the engine loads from and builds one
// histogram per int64 column, keyed by column name. Callers derive the
// catalog with datagen.FromSpec from the same rows and seed the
// measured systems are built with, so the histograms summarize exactly
// the measured data; the local resolver and the fabric coordinator pass
// identical inputs, so their models — and therefore their picks and
// regret grids — stay byte-identical.
func BuildHistograms(gen datagen.Catalog) map[string]*Histogram {
	out := map[string]*Histogram{}
	for i := range gen {
		schema := gen.Schema(i)
		var ints []int
		for o := 0; o < schema.NumColumns(); o++ {
			if schema.Column(o).Type == record.TypeInt64 {
				ints = append(ints, o)
			}
		}
		cols := make([][]int64, len(ints))
		// The callback never fails; a catalog that cannot generate leaves
		// its columns without histograms, so estimates stay uniform.
		_ = gen.Generate(i, func(row []record.Value) error {
			for k, o := range ints {
				cols[k] = append(cols[k], row[o].AsInt())
			}
			return nil
		})
		for k, o := range ints {
			out[schema.Column(o).Name] = NewHistogram(cols[k], HistogramBuckets)
		}
	}
	return out
}
