package optimizer_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"robustmap/internal/engine"
	"robustmap/internal/optimizer"
	"robustmap/internal/plan"
	"robustmap/internal/spec"
)

// TestPaperQueryEnumeration pins the candidate list for the embedded
// paper study as a query: 15 candidates, in rule order, deterministic.
func TestPaperQueryEnumeration(t *testing.T) {
	q := optimizer.PaperQuery()
	cands, err := optimizer.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"scan",
		"fetch-trad-idx_a", "fetch-impr-idx_a", "fetch-bitmap-idx_a",
		"fetch-trad-idx_b", "fetch-impr-idx_b", "fetch-bitmap-idx_b",
		"merge-idx_a-idx_b", "merge-idx_b-idx_a",
		"hash-idx_a-idx_b", "hash-idx_b-idx_a",
		"keyfilter-idx_ab", "keyfilter-idx_ba",
		"mdam-idx_ab", "mdam-idx_ba",
	}
	if len(cands) != len(want) {
		t.Fatalf("enumerated %d candidates, want %d", len(cands), len(want))
	}
	if len(cands) < 8 {
		t.Fatalf("paper query must enumerate >= 8 candidates, got %d", len(cands))
	}
	for i, c := range cands {
		if c.Plan.ID != want[i] {
			t.Errorf("candidate %d = %q, want %q", i, c.Plan.ID, want[i])
		}
	}

	// Byte-identical across enumerations: same query, same candidates.
	again, err := optimizer.Enumerate(optimizer.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(cands)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Error("two enumerations of the same query differ")
	}
}

// paperPlansByID collects the embedded workload's hand-written plans.
func paperPlansByID(t *testing.T) map[string]spec.PlanSpec {
	t.Helper()
	out := map[string]spec.PlanSpec{}
	pw := plan.PaperWorkload()
	for _, sys := range pw.Systems {
		for _, p := range sys.Plans {
			out[p.ID] = p
		}
	}
	return out
}

func treeJSON(t *testing.T, n *spec.PlanNode) string {
	t.Helper()
	b, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// matchCandidates pairs enumerated candidates with hand-written plans
// whose trees serialize byte-identically (and agree on RequiresTB).
func matchCandidates(t *testing.T, cands []optimizer.Candidate, hand map[string]spec.PlanSpec) map[string]string {
	t.Helper()
	matches := map[string]string{} // hand-written id -> candidate id
	for _, c := range cands {
		cj := treeJSON(t, c.Plan.Root)
		for id, hp := range hand {
			if treeJSON(t, hp.Root) == cj && hp.RequiresTB == c.Plan.RequiresTB {
				matches[id] = c.Plan.ID
			}
		}
	}
	return matches
}

// TestPaperTreeEquivalence pins that the enumerator reproduces the
// hand-written paper plans byte-for-byte: the 2-D query covers the 13
// plans of the two-predicate study, and its single-predicate projection
// covers the Figure 1/2 extras (traditional fetch and the four
// covering RID joins).
func TestPaperTreeEquivalence(t *testing.T) {
	hand := paperPlansByID(t)

	cands, err := optimizer.Enumerate(optimizer.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	matches := matchCandidates(t, cands, hand)
	want2D := []string{"A1", "A2", "A3", "A4", "A5", "A6", "A7", "B1", "B2", "B3", "B4", "C1", "C2"}
	for _, id := range want2D {
		if _, ok := matches[id]; !ok {
			t.Errorf("no enumerated candidate matches hand-written plan %s", id)
		}
	}
	if len(matches) != len(want2D) {
		t.Errorf("2-D query matched %d hand-written plans (%v), want %d", len(matches), matches, len(want2D))
	}

	// The single-predicate query (no projection) enumerates the
	// Figure 1/2 shapes, covering RID joins included.
	q1 := optimizer.PaperQuery()
	q1.Predicates = q1.Predicates[:1]
	q1.Columns = nil
	q1.Sweep = spec.SweepSpec{MaxExp: 10}
	cands1, err := optimizer.Enumerate(q1)
	if err != nil {
		t.Fatal(err)
	}
	matches1 := matchCandidates(t, cands1, hand)
	for _, id := range []string{"F1-trad", "F2-merge-ab", "F2-merge-ba", "F2-hash-ab", "F2-hash-ba"} {
		if _, ok := matches1[id]; !ok {
			t.Errorf("no enumerated candidate matches hand-written plan %s", id)
		}
	}
}

// TestEnumeratedPlansMeasureIdentically is the equivalence pin: an
// optimizer-enumerated plan whose tree coincides with a hand-written
// spec compiles through the same registry and measures byte-identically
// to it — same simulated time, same row count, at every query point.
func TestEnumeratedPlansMeasureIdentically(t *testing.T) {
	hand := paperPlansByID(t)
	q := optimizer.PaperQuery()
	cands, err := optimizer.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	matches := matchCandidates(t, cands, hand)
	candByID := map[string]optimizer.Candidate{}
	for _, c := range cands {
		candByID[c.Plan.ID] = c
	}

	// One workload, one system, both copies of every matched plan — so
	// both compile and measure in an identical context.
	var plans []spec.PlanSpec
	for hwID, cID := range matches {
		hw := hand[hwID]
		hw.ID = "hw-" + hwID
		en := candByID[cID].Plan
		en.ID = "en-" + hwID
		plans = append(plans, hw, en)
	}
	pw := plan.PaperWorkload()
	ws := &spec.WorkloadSpec{
		Name:    "equivalence",
		Catalog: pw.Catalog,
		Systems: []spec.SystemSpec{{
			Name:    "eq",
			Indexes: []string{"idx_a", "idx_b", "idx_ab", "idx_ba"},
			Plans:   plans,
		}},
		Sweep: spec.SweepSpec{MaxExp: 2, Grid2D: true},
	}
	cw, err := plan.CompileWorkload(ws)
	if err != nil {
		t.Fatal(err)
	}

	cfg := engine.DefaultConfig()
	cfg.Rows = 1 << 12
	cfg.Indexes = nil
	for _, name := range ws.Systems[0].Indexes {
		def := ws.Catalog.Index(name)
		cfg.IndexDefs = append(cfg.IndexDefs, engine.IndexDef{Name: def.Name, Columns: def.Columns})
	}
	sys, err := engine.BuildSystem("eq", cfg)
	if err != nil {
		t.Fatal(err)
	}

	points := []plan.Query{
		{TA: 1, TB: 1},
		{TA: cfg.Rows / 8, TB: cfg.Rows / 2},
		{TA: cfg.Rows / 2, TB: cfg.Rows / 8},
		{TA: cfg.Rows, TB: cfg.Rows},
	}
	for hwID := range matches {
		hw, _ := cw.Plan("hw-" + hwID)
		en, _ := cw.Plan("en-" + hwID)
		for _, qp := range points {
			a := sys.RunShared(hw, qp)
			b := sys.RunShared(en, qp)
			if a.Time != b.Time || a.Rows != b.Rows {
				t.Errorf("%s at %+v: hand-written (%v, %d rows) != enumerated (%v, %d rows)",
					hwID, qp, a.Time, a.Rows, b.Time, b.Rows)
			}
		}
	}
}

// TestPickDeterminism pins that picks depend only on the query point:
// repeated evaluation at the same thresholds yields identical grids.
func TestPickDeterminism(t *testing.T) {
	q := optimizer.PaperQuery()
	cands, err := optimizer.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	m := optimizer.NewModel(q, 1<<16, engine.DefaultConfig().Seed)
	ta := []int64{1, 16, 256, 4096, 65536}
	p1 := m.Picks2D(cands, ta, ta)
	p2 := m.Picks2D(cands, ta, ta)
	a, _ := json.Marshal(p1)
	b, _ := json.Marshal(p2)
	if !bytes.Equal(a, b) {
		t.Error("picks differ across evaluations")
	}
	for i := range p1 {
		for j, p := range p1[i] {
			if p < 0 || p >= len(cands) {
				t.Fatalf("pick [%d][%d] = %d out of range", i, j, p)
			}
		}
	}
}

// TestExplainMarksPick pins the explain payload: exactly one picked
// candidate, ineligible candidates marked, estimates positive.
func TestExplainMarksPick(t *testing.T) {
	q := optimizer.PaperQuery()
	cands, err := optimizer.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	m := optimizer.NewModel(q, 1<<16, engine.DefaultConfig().Seed)

	est := m.Explain(cands, 1024, -1) // 1-D point: tb-driven plans ineligible
	picked := 0
	for _, e := range est {
		if e.Picked {
			picked++
			if !e.Eligible {
				t.Errorf("picked candidate %s is ineligible", e.ID)
			}
		}
		if e.Eligible && e.Cost <= 0 {
			t.Errorf("candidate %s has non-positive estimate %v", e.ID, e.Cost)
		}
	}
	if picked != 1 {
		t.Errorf("explain marked %d picks, want 1", picked)
	}
	byID := map[string]optimizer.CostEstimate{}
	for _, e := range est {
		byID[e.ID] = e
	}
	for _, id := range []string{"fetch-impr-idx_b", "keyfilter-idx_ba"} {
		if byID[id].Eligible {
			t.Errorf("tb-driven candidate %s must be ineligible at a 1-D point", id)
		}
	}
}

// TestCacheMemoizesByStructure pins plan-cache keying: queries that
// differ only in their sweep sections share one candidate list.
func TestCacheMemoizesByStructure(t *testing.T) {
	c := optimizer.NewCache()
	q1 := optimizer.PaperQuery()
	q2 := optimizer.PaperQuery()
	q2.Sweep.MaxExp = 4
	if q1.Hash() == q2.Hash() {
		t.Fatal("test queries should differ in content hash")
	}
	if q1.StructureHash() != q2.StructureHash() {
		t.Fatal("sweep-only differences must not change the structure hash")
	}
	a, err := c.Candidates(q1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Candidates(q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("cache returned %d then %d candidates", len(a), len(b))
	}
	if &a[0] != &b[0] {
		t.Error("cache did not memoize by structure hash")
	}
}

// TestWorkloadSynthesis pins the measurement workload's shape: one
// system mirroring the query's physical context, every candidate as a
// plan, the query's sweep axes.
func TestWorkloadSynthesis(t *testing.T) {
	q := optimizer.PaperQuery()
	cands, err := optimizer.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	ws := optimizer.Workload(q, cands)
	if err := ws.Validate(); err != nil {
		t.Fatalf("synthesized workload invalid: %v", err)
	}
	if len(ws.Systems) != 1 || len(ws.Systems[0].Plans) != len(cands) {
		t.Fatalf("want one system with %d plans, got %+v systems", len(cands), len(ws.Systems))
	}
	if got := ws.Systems[0].Indexes; len(got) != 4 {
		t.Errorf("system indexes = %v, want all four", got)
	}
	if !ws.Sweep.Grid2D || ws.Sweep.MaxExp != q.Sweep.MaxExp {
		t.Errorf("sweep = %+v, want the query's axes", ws.Sweep)
	}
	if _, err := plan.CompileWorkload(ws); err != nil {
		t.Fatalf("synthesized workload does not compile: %v", err)
	}
}
