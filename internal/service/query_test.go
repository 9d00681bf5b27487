package service

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"robustmap/internal/engine"
	"robustmap/internal/optimizer"
	"robustmap/internal/spec"
)

// smallPaperQuery is the embedded paper query at test scale.
func smallPaperQuery(maxExp int) *spec.QuerySpec {
	q := optimizer.PaperQuery()
	q.Sweep.MaxExp = maxExp
	return q
}

// TestRequestPlanSourceConflicts pins the exactly-one-of rule and its
// message: a request names its plans exactly one way.
func TestRequestPlanSourceConflicts(t *testing.T) {
	const wantMsg = "exactly one of plans, workload, or query must be set"
	q := smallPaperQuery(2)
	ws := zipfWorkload(1 << 10)
	cases := []struct {
		name string
		req  Request
	}{
		{"none", Request{MaxExp: 2}},
		{"plans+workload", Request{Plans: []string{"A1"}, Workload: ws, MaxExp: 2}},
		{"plans+query", Request{Plans: []string{"A1"}, Query: q}},
		{"workload+query", Request{Workload: ws, Query: q}},
		{"all three", Request{Plans: []string{"A1"}, Workload: ws, Query: q}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("Validate err = %v, want ErrInvalidRequest", err)
			}
			if !strings.Contains(err.Error(), wantMsg) {
				t.Fatalf("Validate err = %q, want it to contain %q", err, wantMsg)
			}
		})
	}
	// Each source alone stays valid.
	for _, req := range []Request{
		{Plans: []string{"A1"}, MaxExp: 2},
		{Workload: ws},
		{Query: q},
	} {
		if err := req.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", req, err)
		}
	}
}

// TestQueryJobProducesRegretMaps runs the paper query end to end and
// pins the query extras: the candidate list, the regret overlay, and
// determinism — the same request yields a byte-identical result at any
// parallelism.
func TestQueryJobProducesRegretMaps(t *testing.T) {
	l := NewLocal(LocalConfig{Workers: 2})
	defer closeLocal(t, l)
	ctx := context.Background()

	run := func(parallelism int) *Result {
		t.Helper()
		res, err := Run(ctx, l, Request{Query: smallPaperQuery(3), Rows: 1 << 12, Parallelism: parallelism}, nil)
		if err != nil {
			t.Fatalf("query job (parallelism %d): %v", parallelism, err)
		}
		return res
	}
	serial := run(1)

	if len(serial.Candidates) != 15 {
		t.Fatalf("result carries %d candidates, want 15", len(serial.Candidates))
	}
	if serial.Map2D == nil || serial.Regret2D == nil {
		t.Fatal("query job must produce the measured map and the regret overlay")
	}
	if serial.Regret1D != nil {
		t.Error("a 2-D query job must not carry a 1-D regret map")
	}
	r := serial.Regret2D
	if len(r.Plans) != 15 || len(r.Picks) != len(serial.Map2D.TA) {
		t.Fatalf("regret grid shape: %d plans, %d pick rows", len(r.Plans), len(r.Picks))
	}
	for i := range r.Picks {
		for j, p := range r.Picks[i] {
			if p < 0 || p >= len(r.Plans) {
				t.Fatalf("pick [%d][%d] = %d out of range", i, j, p)
			}
			if r.Regret[i][j] < 1 {
				t.Fatalf("regret [%d][%d] = %v < 1", i, j, r.Regret[i][j])
			}
		}
	}

	parallel := run(-1)
	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(parallel)
	if string(a) != string(b) {
		t.Fatal("query job result differs between parallelism 1 and -1")
	}
}

// TestQueryJob1D pins the 1-D path: a single-predicate query sweeps the
// 1-D axis and gets a 1-D regret overlay.
func TestQueryJob1D(t *testing.T) {
	l := NewLocal(LocalConfig{Workers: 1})
	defer closeLocal(t, l)
	ctx := context.Background()

	q := smallPaperQuery(3)
	q.Predicates = q.Predicates[:1]
	q.Columns = nil
	q.Sweep = spec.SweepSpec{MaxExp: 3}
	res, err := Run(ctx, l, Request{Query: q, Rows: 1 << 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Map1D == nil || res.Regret1D == nil {
		t.Fatal("1-D query job must produce Map1D and Regret1D")
	}
	if len(res.Candidates) == 0 {
		t.Fatal("result carries no candidates")
	}
	for i, p := range res.Regret1D.Picks {
		if p < 0 || p >= len(res.Regret1D.Plans) {
			t.Fatalf("pick %d = %d out of range", i, p)
		}
	}
}

// TestQueryRejectedAtSubmit pins admission: a query whose enumerated
// plans cannot compile (schema mismatch against the generator) fails at
// Submit with ErrInvalidRequest, and so does a structurally invalid
// query.
func TestQueryRejectedAtSubmit(t *testing.T) {
	l := NewLocal(LocalConfig{Workers: 1})
	defer closeLocal(t, l)
	ctx := context.Background()

	// Structurally fine (the schema-less catalog defers column checks),
	// but the generator has no column "zz", so compilation fails.
	bad := &spec.QuerySpec{
		Name: "bad-column",
		Catalog: spec.CatalogSpec{
			Tables: []spec.TableSpec{{Name: "lineitem", Rows: 1 << 10}},
		},
		Table:      "lineitem",
		Predicates: []spec.PredSpec{{Column: "zz", Hi: &spec.ValueSpec{Param: "ta"}}},
		Sweep:      spec.SweepSpec{MaxExp: 2},
	}
	if _, err := l.Submit(ctx, Request{Query: bad}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("Submit(bad column) err = %v, want ErrInvalidRequest", err)
	}

	invalid := smallPaperQuery(2)
	invalid.Table = "nope"
	if _, err := l.Submit(ctx, Request{Query: invalid}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("Submit(invalid query) err = %v, want ErrInvalidRequest", err)
	}
}

// joinTestQuery is a small two-table join query: orders (child) joined
// up to customer, a swept predicate on the child and a constant one on
// the parent — the multi-table counterpart of smallPaperQuery.
func joinTestQuery() *spec.QuerySpec {
	c := int64(1 << 7)
	return &spec.QuerySpec{
		Name: "join-orders-customer",
		Catalog: spec.CatalogSpec{
			Tables: []spec.TableSpec{
				{Name: "orders", Rows: 1 << 10, Seed: 8, ForeignKeys: []spec.ForeignKeySpec{
					{Column: "ord_cust", RefTable: "customer", Containment: 0.875},
				}},
				{Name: "customer", Rows: 1 << 8, Seed: 7},
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
			{Column: "customer_a", Hi: &spec.ValueSpec{Const: &c}},
		},
		Sweep: spec.SweepSpec{MaxExp: 3},
	}
}

// TestJoinQueryJob runs a multi-table join query end to end: the
// candidate list covers both join orders, the measured map gets the
// regret overlay, and the result is byte-identical at any parallelism.
func TestJoinQueryJob(t *testing.T) {
	l := NewLocal(LocalConfig{Workers: 2})
	defer closeLocal(t, l)
	ctx := context.Background()

	run := func(parallelism int) *Result {
		t.Helper()
		res, err := Run(ctx, l, Request{Query: joinTestQuery(), Parallelism: parallelism}, nil)
		if err != nil {
			t.Fatalf("join query job (parallelism %d): %v", parallelism, err)
		}
		return res
	}
	serial := run(1)
	if len(serial.Candidates) != 8 {
		t.Fatalf("result carries %d candidates, want 8", len(serial.Candidates))
	}
	if serial.Map1D == nil || serial.Regret1D == nil {
		t.Fatal("join query job must produce Map1D and Regret1D")
	}
	for i, p := range serial.Regret1D.Picks {
		if p < 0 || p >= len(serial.Regret1D.Plans) {
			t.Fatalf("pick %d = %d out of range", i, p)
		}
	}

	parallel := run(-1)
	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(parallel)
	if string(a) != string(b) {
		t.Fatal("join query job result differs between parallelism 1 and -1")
	}
}

// TestMultiTableRowsOverrideRejected pins the admission rule: a request
// cannot override rows on a multi-table catalog — every table declares
// its own cardinality.
func TestMultiTableRowsOverrideRejected(t *testing.T) {
	req := Request{Query: joinTestQuery(), Rows: 1 << 12}
	err := req.Validate()
	if !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("Validate err = %v, want ErrInvalidRequest", err)
	}
	if want := "rows cannot override a multi-table catalog"; !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate err = %q, want it to contain %q", err, want)
	}
}

// TestJoinResultSizeOracle checks the join-size oracle against ground
// truth: every candidate plan's measured row count at every axis point
// must equal the oracle's answer — and an adaptive (refine) join sweep,
// which leans on that oracle, must succeed.
func TestJoinResultSizeOracle(t *testing.T) {
	r := NewEngineResolver(engine.DefaultConfig())
	rs, err := r.Resolve(Request{Query: joinTestQuery()})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ResultSize == nil {
		t.Fatal("join query resolved without a result-size oracle")
	}
	var sized int64
	for _, ta := range rs.Thresholds {
		want := rs.ResultSize(ta, -1)
		sized += want
		for i, src := range rs.Sources {
			if got := src.Measure(ta, -1).Rows; got != want {
				t.Fatalf("source %d at ta=%d measured %d rows, oracle says %d", i, ta, got, want)
			}
		}
	}
	if sized == 0 {
		t.Fatal("oracle returned 0 at every axis point; the fixture no longer selects anything")
	}

	l := NewLocal(LocalConfig{Workers: 1})
	defer closeLocal(t, l)
	res, err := Run(context.Background(), l, Request{Query: joinTestQuery(), Refine: true}, nil)
	if err != nil {
		t.Fatalf("adaptive join query job: %v", err)
	}
	if res.Mesh1D == nil {
		t.Fatal("adaptive join query job must produce Mesh1D")
	}
}

// TestQueryHistogramsUseBaseSeed pins that a single-table query's
// histograms summarize the data its cells are measured on: under a
// non-default base seed, the resolver's model holds exactly the
// histograms of the built system's generated columns.
func TestQueryHistogramsUseBaseSeed(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Seed = 7
	r := NewEngineResolver(cfg)
	q := smallPaperQuery(3)
	q.Histograms = true
	q.Catalog.Tables[0].ZipfA = 1.5
	q.Catalog.Tables[0].ZipfB = 1.3
	const rows = 1 << 12
	_, qp, err := r.planQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := r.workloadSystem(qp.ws, qp.ws.Hash(), &qp.ws.Systems[0], rows)
	if err != nil {
		t.Fatal(err)
	}
	hists := r.model(q, rows).Hists
	for _, col := range []string{"orderkey", "a", "b"} {
		vals := sys.ColumnData(q.Table, col)
		if len(vals) != rows {
			t.Fatalf("ColumnData(%s, %s) has %d values, want %d", q.Table, col, len(vals), rows)
		}
		if want := optimizer.NewHistogram(vals, optimizer.HistogramBuckets); !reflect.DeepEqual(hists[col], want) {
			t.Errorf("histogram of %s does not summarize the measured column", col)
		}
	}
}
