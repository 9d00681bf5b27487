// Cost model: estimates candidate plan cost in the same units the
// simulated clock charges during measurement — I/O time from
// iomodel.Params (seek latency, page transfer, prefetch window) and CPU
// time from internal/exec's per-row charge constants. Sharing the
// vocabulary means an estimate and a measurement are directly
// comparable durations; regret is their ratio.
package optimizer

import (
	"math"
	"time"

	"robustmap/internal/datagen"
	"robustmap/internal/exec"
	"robustmap/internal/iomodel"
	"robustmap/internal/spec"
	"robustmap/internal/storage"
)

// Cost shapes: what the enumerator records about each candidate so the
// model can estimate it without re-deriving structure from the tree.
type shapeKind int

const (
	shapeScan      shapeKind = iota // full table scan
	shapeFetch                      // single index leg + base-row fetch
	shapeIntersect                  // two index legs, RID merge/hash, fetch
	shapeKeyFilter                  // composite-index entry filter + fetch
	shapeMDAM                       // index-only MDAM over a covering index
	shapeCoverJoin                  // covering RID join, no base access
	shapeJoin                       // left-deep multi-table join (join.go)
)

// drive is one index leg: the predicate providing its bounds (nil for
// an unbounded full-index leg or an MDAM "all" set) and the index key
// width (sizes leaf entries).
type drive struct {
	pred  *spec.PredSpec
	width int
}

type costShape struct {
	kind        shapeKind
	fetchKind   string // fetch discipline for shapeFetch
	hash        bool   // hash (true) vs merge RID combination
	driving     []drive
	entry       []spec.PredSpec // in-index entry predicates (key filter)
	residual    []spec.PredSpec // predicates applied to fetched/scanned rows
	sort        bool            // a sort wrapper was added
	agg         bool            // a hash_agg wrapper was added
	limitPushed bool            // the query limit sits directly on an ordered source

	// Join shapes (shapeJoin): the uniform method and the left-deep
	// step sequence; driving carries the index leg of the index-driven
	// access variant.
	joinMethod   string
	jsteps       []joinStep
	driveIndexed bool
}

// rowHeaderBytes approximates the per-row heap overhead (slot, header,
// fixed columns) the generator adds on top of the payload.
const rowHeaderBytes = 48

// leafEntryBytes sizes one B-tree leaf entry: RID plus width key
// columns.
func leafEntryBytes(width int) int64 { return 24 + 8*int64(width) }

// Model estimates candidate costs for one physical context: table
// cardinality, row payload, and the device the simulated clock charges
// against. It deliberately assumes uniform value distributions —
// selectivity of "col < v" is v/Rows — so on skewed data it errs the
// way a textbook optimizer errs, producing genuine (not manufactured)
// regret.
type Model struct {
	Rows         int64
	PayloadBytes int
	IO           iomodel.Params

	// Tables carries per-table statistics, keyed by table name. ColRows
	// maps each generated column name to its owning table's cardinality
	// — the denominator of that column's uniform selectivity (every
	// generated int64 column draws from [0, rows)).
	Tables  map[string]TableStats
	ColRows map[string]int64

	// Hists holds per-column equi-depth histograms when the query opts
	// in (QuerySpec.Histograms); columns without one fall back to the
	// uniform assumption.
	Hists map[string]*Histogram
}

// TableStats is the model's per-table statistics.
type TableStats struct {
	Rows         int64
	PayloadBytes int
}

// NewModel derives the model from the query's catalog, with the default
// device parameters — the same ones the measurement engine charges
// unless a scenario overrides them. rows, when > 0, is the axis (first)
// table's cardinality and seed the base generation seed: the defaults
// datagen.FromSpec applies exactly as the engine build does; the seed
// only matters to the histograms.
func NewModel(q *spec.QuerySpec, rows, seed int64) Model {
	gen := datagen.FromSpec(&q.Catalog, rows, seed)
	m := Model{IO: iomodel.DefaultParams(),
		Tables:  make(map[string]TableStats, len(gen)),
		ColRows: make(map[string]int64)}
	for i, t := range gen {
		pb := datagen.DefaultPayloadBytes
		if t.PayloadBytes > 0 {
			pb = t.PayloadBytes
		}
		if i == 0 {
			m.Rows, m.PayloadBytes = t.Rows, pb
		}
		m.Tables[t.Name] = TableStats{Rows: t.Rows, PayloadBytes: pb}
		for _, col := range gen.Schema(i).Columns() {
			m.ColRows[col.Name] = t.Rows
		}
	}
	if q.Histograms {
		m.Hists = BuildHistograms(gen)
	}
	return m
}

func pagesOf(rows int64, rowBytes int64) float64 {
	return math.Ceil(float64(rows*rowBytes) / float64(storage.PageSize))
}

func (m Model) heapPages() float64 {
	return pagesOf(m.Rows, int64(m.PayloadBytes)+rowHeaderBytes)
}

func (m Model) heapPagesOf(table string) float64 {
	s := m.Tables[table]
	return pagesOf(s.Rows, int64(s.PayloadBytes)+rowHeaderBytes)
}

func (m Model) leafPages(width int) float64 {
	return pagesOf(m.Rows, leafEntryBytes(width))
}

func (m Model) leafPagesOf(table string, width int) float64 {
	return pagesOf(m.Tables[table].Rows, leafEntryBytes(width))
}

// pages→ns helpers in iomodel's units.
func (m Model) seqNS(pages float64) float64 {
	if pages <= 0 {
		return 0
	}
	return float64(m.IO.SequentialCost(int64(math.Ceil(pages))))
}

func (m Model) randNS(pages float64) float64 {
	if pages <= 0 {
		return 0
	}
	return float64(m.IO.RandomCost(int64(math.Ceil(pages))))
}

// distinctPages is the expected number of distinct heap pages k random
// RIDs touch out of hp pages — the classic d = hp·(1−e^(−k/hp)) — which
// is what makes improved/bitmap fetches cheaper than k seeks.
func distinctPages(k, hp float64) float64 {
	if hp <= 0 {
		return 0
	}
	return hp * (1 - math.Exp(-k/hp))
}

// sel is the model's selectivity of predicate p at the query point —
// (hi−lo)/rows under the uniform assumption, with the denominator
// taken from the column's owning table for join queries, or the
// column's equi-depth histogram fraction when one was built. active is
// false when the predicate's guard drops it at this point (tb < 0),
// in which case frac is 1 and the predicate costs nothing.
func (m Model) sel(p *spec.PredSpec, ta, tb int64) (frac float64, active bool) {
	if p == nil {
		return 1, false
	}
	if p.IfParam == spec.ParamTB && tb < 0 {
		return 1, false
	}
	rows := m.Rows
	if r, ok := m.ColRows[p.Column]; ok {
		rows = r
	}
	val := func(v *spec.ValueSpec, dflt int64) int64 {
		switch {
		case v == nil:
			return dflt
		case v.Param == spec.ParamTA:
			return ta
		case v.Param == spec.ParamTB:
			return tb
		case v.Const != nil:
			return *v.Const
		}
		return dflt
	}
	lo := val(p.Lo, 0)
	hi := val(p.Hi, rows)
	if h := m.Hists[p.Column]; h != nil {
		f := h.LessThan(hi) - h.LessThan(lo)
		return math.Min(1, math.Max(0, f)), true
	}
	f := float64(hi-lo) / float64(rows)
	return math.Min(1, math.Max(0, f)), true
}

// predsSel is the product of the active predicates' selectivities.
func (m Model) predsSel(preds []spec.PredSpec, ta, tb int64) float64 {
	f := 1.0
	for i := range preds {
		s, _ := m.sel(&preds[i], ta, tb)
		f *= s
	}
	return f
}

// residualCPU is the per-row predicate charge for the still-active
// residuals at this point.
func (m Model) residualCPU(preds []spec.PredSpec, ta, tb int64) float64 {
	var n float64
	for i := range preds {
		if _, active := m.sel(&preds[i], ta, tb); active {
			n++
		}
	}
	return n * float64(exec.CostPredicate)
}

// fetchCost charges bringing k RIDs' base rows in via the given fetch
// discipline: traditional pays one seek per row, improved sorts the
// RIDs and reads distinct pages (or degenerates to a full sequential
// pass when that is cheaper), bitmap replaces the sort with bitmap
// inserts.
func (m Model) fetchCost(kind string, k float64) (ioNS, cpuNS float64) {
	return m.fetchCostPages(kind, k, m.heapPages())
}

// fetchCostPages is fetchCost against an explicit heap size — join
// steps fetch from tables other than the axis table.
func (m Model) fetchCostPages(kind string, k, hp float64) (ioNS, cpuNS float64) {
	switch kind {
	case "traditional":
		return m.randNS(k), 0
	case "bitmap":
		cpuNS = k * float64(exec.CostBitmapOp)
	default: // improved
		cpuNS = k * math.Log2(k+2) * float64(exec.CostRIDCompare)
	}
	d := distinctPages(k, hp)
	return math.Min(m.randNS(d), m.seqNS(hp)), cpuNS
}

// Estimate is the model's cost for one candidate at one query point,
// in the clock's units. tb < 0 means the point has no b threshold (the
// 1-D axis); callers must not ask about candidates that require tb
// there (Pick filters them).
func (m Model) Estimate(c Candidate, ta, tb int64) time.Duration {
	sh := c.shape
	N := float64(m.Rows)
	var io, cpu float64

	// Output cardinality before order/limit/aggregation: the product of
	// every active predicate's selectivity.
	outFrac := 1.0
	seen := map[*spec.PredSpec]bool{}
	mul := func(p *spec.PredSpec) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		f, _ := m.sel(p, ta, tb)
		outFrac *= f
	}
	for i := range sh.driving {
		mul(sh.driving[i].pred)
	}
	for i := range sh.entry {
		mul(&sh.entry[i])
	}
	for i := range sh.residual {
		mul(&sh.residual[i])
	}
	out := outFrac * N

	switch sh.kind {
	case shapeScan:
		io = m.seqNS(m.heapPages())
		cpu = N*float64(exec.CostRowDecode) + N*m.residualCPU(sh.residual, ta, tb)

	case shapeFetch:
		d := sh.driving[0]
		f, _ := m.sel(d.pred, ta, tb)
		k := f * N
		io = m.seqNS(f * m.leafPages(d.width))
		cpu = k * float64(exec.CostIndexEntry)
		fio, fcpu := m.fetchCost(sh.fetchKind, k)
		io += fio
		cpu += fcpu + k*float64(exec.CostRowDecode) + k*m.residualCPU(sh.residual, ta, tb)

	case shapeIntersect:
		ks := make([]float64, len(sh.driving))
		for i, d := range sh.driving {
			f, _ := m.sel(d.pred, ta, tb)
			ks[i] = f * N
			io += m.seqNS(f * m.leafPages(d.width))
			cpu += ks[i] * float64(exec.CostIndexEntry)
			if sh.hash {
				cpu += ks[i] * float64(exec.CostHashOp)
			} else {
				cpu += ks[i]*math.Log2(ks[i]+2)*float64(exec.CostRIDCompare) + ks[i]*float64(exec.CostRIDCompare)
			}
		}
		kout := N
		for _, d := range sh.driving {
			f, _ := m.sel(d.pred, ta, tb)
			kout *= f
		}
		fio, fcpu := m.fetchCost("improved", kout)
		io += fio
		cpu += fcpu + kout*float64(exec.CostRowDecode) + kout*m.residualCPU(sh.residual, ta, tb)

	case shapeKeyFilter:
		d := sh.driving[0]
		f, _ := m.sel(d.pred, ta, tb)
		k := f * N
		io = m.seqNS(f * m.leafPages(d.width))
		cpu = k * (float64(exec.CostIndexEntry) + m.residualCPU(sh.entry, ta, tb))
		kout := k
		for i := range sh.entry {
			ef, _ := m.sel(&sh.entry[i], ta, tb)
			kout *= ef
		}
		fio, fcpu := m.fetchCost("bitmap", kout)
		io += fio
		cpu += fcpu + kout*float64(exec.CostRowDecode) + kout*m.residualCPU(sh.residual, ta, tb)

	case shapeMDAM:
		lead := sh.driving[0]
		f, _ := m.sel(lead.pred, ta, tb)
		// MDAM reads the lead-bounded leaf region, skipping runs the
		// second set excludes; index-only, so no base-row I/O or decode.
		io = m.seqNS(f * m.leafPages(lead.width))
		cpu = f*N*float64(exec.CostBitmapOp) + out*float64(exec.CostIndexEntry)

	case shapeCoverJoin:
		for _, d := range sh.driving {
			f, _ := m.sel(d.pred, ta, tb)
			k := f * N
			io += m.seqNS(f * m.leafPages(d.width))
			cpu += k * float64(exec.CostIndexEntry)
			if sh.hash {
				cpu += k * float64(exec.CostHashOp)
			} else {
				cpu += k*math.Log2(k+2)*float64(exec.CostRIDCompare) + k*float64(exec.CostRIDCompare)
			}
		}

	case shapeJoin:
		// Left-deep join: K tracks the accumulated cardinality; each
		// step pays its table's access plus the method's per-row work,
		// then scales K by the edge multiplier and the step's predicate
		// selectivities.
		d0 := sh.jsteps[0]
		s0 := m.Tables[d0.table]
		K := float64(s0.Rows) * m.predsSel(d0.preds, ta, tb)
		if sh.driveIndexed {
			dr := sh.driving[0]
			f, _ := m.sel(dr.pred, ta, tb)
			k := f * float64(s0.Rows)
			io = m.seqNS(f * m.leafPagesOf(d0.table, dr.width))
			cpu = k * float64(exec.CostIndexEntry)
			fio, fcpu := m.fetchCostPages("improved", k, m.heapPagesOf(d0.table))
			io += fio
			cpu += fcpu + k*float64(exec.CostRowDecode) + k*m.residualCPU(d0.preds, ta, tb)
		} else {
			io = m.seqNS(m.heapPagesOf(d0.table))
			cpu = float64(s0.Rows) * (float64(exec.CostRowDecode) + m.residualCPU(d0.preds, ta, tb))
		}
		for _, st := range sh.jsteps[1:] {
			s := m.Tables[st.table]
			R := float64(s.Rows)
			selT := m.predsSel(st.preds, ta, tb)
			matched := K * st.matchFrac
			switch sh.joinMethod {
			case "inlj":
				// One index descent per outer row; matches fetch base
				// rows, clustered by how many distinct pages they hit.
				cpu += K * float64(exec.CostIndexEntry)
				io += m.randNS(distinctPages(K, m.leafPagesOf(st.table, 1)))
				io += m.randNS(distinctPages(matched, m.heapPagesOf(st.table)))
				cpu += matched * (float64(exec.CostRowDecode) + m.residualCPU(st.preds, ta, tb))
			case "hash":
				// Build on the new table (filtered), probe with the
				// accumulated rows.
				io += m.seqNS(m.heapPagesOf(st.table))
				cpu += R * (float64(exec.CostRowDecode) + m.residualCPU(st.preds, ta, tb))
				cpu += R*selT*float64(exec.CostHashOp) + K*float64(exec.CostHashOp)
			case "merge":
				// Sort both sides, then a single merge pass.
				io += m.seqNS(m.heapPagesOf(st.table))
				cpu += R * (float64(exec.CostRowDecode) + m.residualCPU(st.preds, ta, tb))
				rf := R * selT
				cpu += K * math.Log2(K+2) * float64(exec.CostSortCompare)
				cpu += rf * math.Log2(rf+2) * float64(exec.CostSortCompare)
				cpu += (K + rf) * float64(exec.CostSortCompare)
			}
			K = matched * selT
		}
		out = K
	}

	// Order/limit/aggregation wrappers, shared across shapes.
	if sh.sort && out > 0 {
		cpu += out * math.Log2(out+2) * float64(exec.CostSortCompare)
	}
	limit := limitOf(c.Plan.Root)
	if limit > 0 {
		bounded := math.Min(out, float64(limit))
		if sh.limitPushed && out > 0 {
			// TopN pushdown on an ordered source: execution stops after
			// the limit, so the whole plan scales down proportionally.
			scale := bounded / out
			io *= scale
			cpu *= scale
		}
		out = bounded
	}
	if sh.agg {
		cpu += out * float64(exec.CostHashOp)
	}
	cpu += out * float64(exec.CostEmit)

	return time.Duration(io + cpu)
}

// limitOf finds the wrapper limit's bound, if any.
func limitOf(n *spec.PlanNode) int64 {
	if n != nil && n.Op == "limit" {
		return n.N
	}
	return 0
}

// eligible reports whether the candidate can run at this point: plans
// that require the tb parameter only exist on the 2-D grid.
func eligible(c Candidate, tb int64) bool {
	return tb >= 0 || !(c.Plan.RequiresTB || c.Plan.NeedsTB())
}

// Pick returns the index of the cheapest eligible candidate at the
// point, by estimated cost; ties break to the lowest enumeration index,
// so the pick is deterministic. It returns -1 only for an empty or
// fully ineligible candidate list.
func (m Model) Pick(cands []Candidate, ta, tb int64) int {
	best := -1
	var bestCost time.Duration
	for i, c := range cands {
		if !eligible(c, tb) {
			continue
		}
		cost := m.Estimate(c, ta, tb)
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// Picks1D evaluates Pick at every threshold of the 1-D axis (tb
// absent).
func (m Model) Picks1D(cands []Candidate, thresholds []int64) []int {
	out := make([]int, len(thresholds))
	for i, ta := range thresholds {
		out[i] = m.Pick(cands, ta, -1)
	}
	return out
}

// Picks2D evaluates Pick on the (ta, tb) grid; out[i][j] pairs ta[i]
// with tb[j], matching Map2D's cell layout.
func (m Model) Picks2D(cands []Candidate, ta, tb []int64) [][]int {
	out := make([][]int, len(ta))
	for i := range ta {
		out[i] = make([]int, len(tb))
		for j := range tb {
			out[i][j] = m.Pick(cands, ta[i], tb[j])
		}
	}
	return out
}

// CostEstimate is one candidate's estimated cost at a query point, for
// explain output.
type CostEstimate struct {
	// ID is the candidate plan id.
	ID string `json:"id"`
	// Description is the plan shape.
	Description string `json:"description,omitempty"`
	// Cost is the model's estimate; meaningless when Eligible is false.
	Cost time.Duration `json:"cost"`
	// Picked marks the optimizer's choice at this point.
	Picked bool `json:"picked"`
	// Eligible is false for plans that require tb at a 1-D point.
	Eligible bool `json:"eligible"`
}

// Explain estimates every candidate at one point and marks the pick —
// the payload behind `robustmap explain`.
func (m Model) Explain(cands []Candidate, ta, tb int64) []CostEstimate {
	pick := m.Pick(cands, ta, tb)
	out := make([]CostEstimate, len(cands))
	for i, c := range cands {
		out[i] = CostEstimate{
			ID:          c.Plan.ID,
			Description: c.Plan.Description,
			Eligible:    eligible(c, tb),
			Picked:      i == pick,
		}
		if out[i].Eligible {
			out[i].Cost = m.Estimate(c, ta, tb)
		}
	}
	return out
}
