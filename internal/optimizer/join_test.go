package optimizer_test

import (
	"strings"
	"testing"

	"robustmap/internal/datagen"
	"robustmap/internal/engine"
	"robustmap/internal/iomodel"
	"robustmap/internal/optimizer"
	"robustmap/internal/plan"
	"robustmap/internal/spec"
)

func i64p(v int64) *int64 { return &v }

// joinQuery is a 2-table join query: orders (child, Zipf-skewable
// predicate column, sized by ordRows) joined up to customer, with a
// constant predicate on the customer side so inner-table predicates
// exercise the filter wrapping.
func joinQuery(zipfA float64, ordRows int64) *spec.QuerySpec {
	return &spec.QuerySpec{
		Name: "join-orders-customer",
		Catalog: spec.CatalogSpec{
			Tables: []spec.TableSpec{
				{Name: "orders", Rows: ordRows, Seed: 8, ZipfA: zipfA, ForeignKeys: []spec.ForeignKeySpec{
					{Column: "ord_cust", RefTable: "customer", Containment: 0.9},
				}},
				{Name: "customer", Rows: 1 << 9, Seed: 7},
			},
			Indexes: []spec.IndexSpec{
				{Name: "pk_customer", Table: "customer", Columns: []string{"customer_id"}},
				{Name: "idx_orders_a", Table: "orders", Columns: []string{"orders_a"}},
			},
		},
		Table: "orders",
		Joins: []spec.JoinSpec{{Table: "orders", Column: "ord_cust"}},
		Predicates: []spec.PredSpec{
			{Column: "orders_a", Hi: &spec.ValueSpec{Param: spec.ParamTA}},
			{Column: "customer_a", Hi: &spec.ValueSpec{Const: i64p(1 << 8)}},
		},
		Sweep: spec.SweepSpec{MaxExp: 4},
	}
}

// joinEngineConfig mirrors joinQuery's catalog as an engine build.
func joinEngineConfig(zipfA float64, ordRows int64) engine.Config {
	return engine.Config{
		PoolPages:    64,
		MemoryBudget: 16 << 20,
		IO:           iomodel.DefaultParams(),
		Tables:       datagen.FromSpec(&joinQuery(zipfA, ordRows).Catalog, 0, 0),
		IndexDefs: []engine.IndexDef{
			{Name: "pk_customer", Table: "customer", Columns: []string{"customer_id"}},
			{Name: "idx_orders_a", Table: "orders", Columns: []string{"orders_a"}},
		},
	}
}

// TestEnumerateJoinCandidates pins the join candidate list: both
// left-deep orders, three methods where their indexes exist, and the
// index-driven access variant only where the driving table has a
// bounded indexed predicate.
func TestEnumerateJoinCandidates(t *testing.T) {
	q := joinQuery(0, 1<<12)
	cands, err := optimizer.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, c := range cands {
		ids = append(ids, c.Plan.ID)
	}
	want := []string{
		// orders-first: all three methods, scan and index-driven access.
		"hash-orders.customer", "hash-orders.customer-ix",
		"inlj-orders.customer", "inlj-orders.customer-ix",
		"merge-orders.customer", "merge-orders.customer-ix",
		// customer-first: no bounded indexed predicate on customer, so no
		// -ix variant; inlj needs an index on ord_cust, which is not built.
		"hash-customer.orders",
		"merge-customer.orders",
	}
	if got := strings.Join(ids, " "); got != strings.Join(want, " ") {
		t.Fatalf("candidate ids:\n got %s\nwant %s", got, strings.Join(want, " "))
	}

	// Determinism: a second enumeration produces the identical list.
	again, err := optimizer.Enumerate(joinQuery(0, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i].Plan.ID != cands[i].Plan.ID {
			t.Fatalf("enumeration not deterministic at %d: %s vs %s", i, again[i].Plan.ID, cands[i].Plan.ID)
		}
	}

	// Every candidate compiles through the standard registry.
	if _, err := plan.CompileWorkload(optimizer.Workload(q, cands)); err != nil {
		t.Fatalf("candidates do not compile: %v", err)
	}
}

// TestJoinCandidatesAgreeOnEngine measures every candidate on the
// engine at a few points and cross-checks the row counts against a
// column-data oracle: every join order and method must produce the
// same join, and the estimates must be positive and finite.
func TestJoinCandidatesAgreeOnEngine(t *testing.T) {
	q := joinQuery(0, 1<<12)
	cands, err := optimizer.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := plan.CompileWorkload(optimizer.Workload(q, cands))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.BuildSystem("opt", joinEngineConfig(0, 1<<12))
	if err != nil {
		t.Fatal(err)
	}

	oa := sys.ColumnData("orders", "orders_a")
	fk := sys.ColumnData("orders", "ord_cust")
	ca := sys.ColumnData("customer", "customer_a")
	oracle := func(ta int64) int64 {
		var n int64
		for i := range oa {
			if oa[i] < ta && fk[i] < int64(len(ca)) && ca[fk[i]] < 1<<8 {
				n++
			}
		}
		return n
	}

	model := optimizer.NewModel(q, 1<<12, engine.DefaultConfig().Seed)
	for _, ta := range []int64{1 << 8, 1 << 12} {
		want := oracle(ta)
		for i, p := range cw.Plans() {
			res := sys.Run(p, plan.Query{TA: ta, TB: -1})
			if res.Rows != want {
				t.Errorf("plan %s at TA=%d: %d rows, oracle says %d", p.ID, ta, res.Rows, want)
			}
			if est := model.Estimate(cands[i], ta, -1); est <= 0 {
				t.Errorf("plan %s at TA=%d: non-positive estimate %v", p.ID, ta, est)
			}
		}
	}
}

// TestHistogramLessThan checks the equi-depth histogram against the
// empirical distribution of a skewed column.
func TestHistogramLessThan(t *testing.T) {
	sys, err := engine.BuildSystem("opt", joinEngineConfig(1.3, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	vals := sys.ColumnData("orders", "orders_a")
	q := joinQuery(1.3, 1<<12)
	q.Histograms = true
	m := optimizer.NewModel(q, 1<<12, engine.DefaultConfig().Seed)

	for _, v := range []int64{4, 64, 1 << 10} {
		var n int
		for _, x := range vals {
			if x < v {
				n++
			}
		}
		truth := float64(n) / float64(len(vals))
		uniform := float64(v) / float64(1<<12)
		hist := m.Hists["orders_a"].LessThan(v)
		if histErr, uniErr := abs(hist-truth), abs(uniform-truth); histErr > uniErr {
			t.Errorf("at v=%d: histogram estimate %.4f farther from truth %.4f than uniform %.4f",
				v, hist, truth, uniform)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestHistogramRegretOnZipfJoin grades the histogram model against the
// uniform model on a Zipf-skewed join: measure every candidate across
// the 1-D axis, let each model pick per threshold, and compare the
// summed measured time of the picks. The histogram model must do at
// least as well in total — on skewed data the uniform model's
// selectivity misestimates are exactly what the histograms fix.
func TestHistogramRegretOnZipfJoin(t *testing.T) {
	// A large, strongly skewed child table is where the uniform
	// assumption hurts: at a small threshold the uniform model expects a
	// handful of rows and reaches for the index-driven access path,
	// while the skew actually puts a large fraction of the table under
	// the threshold and the random fetches lose badly to a scan.
	const zipf, ordRows = 1.3, int64(1 << 15)
	q := joinQuery(zipf, ordRows)
	cands, err := optimizer.Enumerate(q)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := plan.CompileWorkload(optimizer.Workload(q, cands))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.BuildSystem("opt", joinEngineConfig(zipf, ordRows))
	if err != nil {
		t.Fatal(err)
	}

	qh := joinQuery(zipf, ordRows)
	qh.Histograms = true
	uniform := optimizer.NewModel(q, ordRows, engine.DefaultConfig().Seed)
	hist := optimizer.NewModel(qh, ordRows, engine.DefaultConfig().Seed)

	plans := cw.Plans()
	thresholds := []int64{1 << 2, 1 << 4, 1 << 8, 1 << 12, ordRows}
	var uniTotal, histTotal, oracleTotal float64
	for _, ta := range thresholds {
		measured := make([]float64, len(plans))
		best := -1
		for i, p := range plans {
			res := sys.Run(p, plan.Query{TA: ta, TB: -1})
			measured[i] = float64(res.Time)
			if best < 0 || measured[i] < measured[best] {
				best = i
			}
		}
		uniTotal += measured[uniform.Pick(cands, ta, -1)]
		histTotal += measured[hist.Pick(cands, ta, -1)]
		oracleTotal += measured[best]
	}
	if histTotal > uniTotal {
		t.Errorf("histogram model total %.0f worse than uniform total %.0f (oracle %.0f)",
			histTotal, uniTotal, oracleTotal)
	}
	// The scenario is constructed so the histograms matter: if both
	// models picked identically everywhere, the test would pass vacuously
	// after a cost-model change inverted the story.
	if histTotal >= uniTotal {
		t.Errorf("histogram model (total %.0f) never beat the uniform model (total %.0f); the scenario no longer discriminates",
			histTotal, uniTotal)
	}
	t.Logf("measured totals: oracle %.0f, histogram %.0f, uniform %.0f", oracleTotal, histTotal, uniTotal)
}
