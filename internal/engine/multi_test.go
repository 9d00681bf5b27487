package engine

import (
	"testing"

	"robustmap/internal/datagen"
	"robustmap/internal/iomodel"
	"robustmap/internal/plan"
	"robustmap/internal/spec"
)

func multiConfig() Config {
	return Config{
		PoolPages:    64,
		MemoryBudget: 16 << 20,
		IO:           iomodel.DefaultParams(),
		Tables: datagen.Catalog{
			{Name: "orders", Rows: 1 << 10, Seed: 1},
			{Name: "lineitem", Rows: 1 << 12, Seed: 2, ForeignKeys: []datagen.ForeignKey{
				{Column: "lineitem_ord", RefTable: "orders", Containment: 0.5},
			}},
		},
		IndexDefs: []IndexDef{
			{Name: "pk_orders", Table: "orders", Columns: []string{"orders_id"}},
			{Name: "idx_li_a", Table: "lineitem", Columns: []string{"lineitem_a"}},
		},
	}
}

func TestBuildMulti(t *testing.T) {
	sys, err := BuildSystem("M", multiConfig())
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	if !sys.Multi() {
		t.Fatalf("Multi() = false")
	}
	if got := sys.Rows(); got != 1<<10 {
		t.Fatalf("Rows() = %d, want first table's %d", got, 1<<10)
	}
	if got := sys.TableRows("lineitem"); got != 1<<12 {
		t.Fatalf("TableRows(lineitem) = %d", got)
	}
	ids := sys.ColumnData("orders", "orders_id")
	if len(ids) != 1<<10 {
		t.Fatalf("orders_id column has %d values", len(ids))
	}
	for i, v := range ids {
		if v != int64(i) {
			t.Fatalf("orders_id[%d] = %d, want insertion order", i, v)
		}
	}
	fk := sys.ColumnData("lineitem", "lineitem_ord")
	var contained int
	for _, v := range fk {
		if v < 1<<10 {
			contained++
		}
	}
	frac := float64(contained) / float64(len(fk))
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("contained FK fraction = %.3f, want ~0.5", frac)
	}
	if sys.ColumnData("lineitem", "lineitem_comment") != nil {
		t.Fatalf("string column unexpectedly retained")
	}
	if !sys.HasIndexes("pk_orders", "idx_li_a") {
		t.Fatalf("indexes missing")
	}
}

// TestMultiJoinPlansAgree compiles a two-table join workload three ways
// (hash, index NLJ, sort+merge), runs each at a few query points on a
// multi-table system, and checks every measured row count against an
// oracle computed from the retained column data. Plan-shape disagreement
// or generator drift both fail loudly here.
func TestMultiJoinPlansAgree(t *testing.T) {
	v := func(p string) *spec.ValueSpec { return &spec.ValueSpec{Param: p} }
	liScan := &spec.PlanNode{Op: "table_scan", Table: "lineitem",
		Preds: []spec.PredSpec{{Column: "lineitem_a", Hi: v(spec.ParamTA)}}}
	ordScan := &spec.PlanNode{Op: "table_scan", Table: "orders"}
	ws := &spec.WorkloadSpec{
		Name: "join-agree",
		Catalog: spec.CatalogSpec{
			Tables: []spec.TableSpec{
				{Name: "orders", Rows: 1 << 10, Seed: 1},
				{Name: "lineitem", Rows: 1 << 12, Seed: 2, ForeignKeys: []spec.ForeignKeySpec{
					{Column: "lineitem_ord", RefTable: "orders", Containment: 0.875},
				}},
			},
			Indexes: []spec.IndexSpec{
				{Name: "pk_orders", Table: "orders", Columns: []string{"orders_id"}},
			},
		},
		Systems: []spec.SystemSpec{{
			Name:    "J",
			Indexes: []string{"pk_orders"},
			Plans: []spec.PlanSpec{
				{ID: "hash", Root: &spec.PlanNode{Op: "hash_join",
					Build: ordScan, Probe: liScan,
					BuildKeys: []string{"orders_id"}, ProbeKeys: []string{"lineitem_ord"}}},
				{ID: "inlj", Root: &spec.PlanNode{Op: "index_nlj",
					Outer: liScan, Index: "pk_orders", OuterKey: "lineitem_ord"}},
				{ID: "merge", Root: &spec.PlanNode{Op: "merge_join",
					Left:     &spec.PlanNode{Op: "sort", Input: liScan, Keys: []string{"lineitem_ord"}},
					Right:    &spec.PlanNode{Op: "sort", Input: ordScan, Keys: []string{"orders_id"}},
					LeftKeys: []string{"lineitem_ord"}, RightKeys: []string{"orders_id"}}},
			},
		}},
		Sweep: spec.SweepSpec{MaxExp: 3},
	}
	cw, err := plan.CompileWorkload(ws)
	if err != nil {
		t.Fatalf("CompileWorkload: %v", err)
	}
	sys, err := BuildSystem("J", Config{
		PoolPages:    64,
		MemoryBudget: 16 << 20,
		IO:           iomodel.DefaultParams(),
		Tables:       datagen.FromSpec(&ws.Catalog, 0, 0),
		IndexDefs: []IndexDef{
			{Name: "pk_orders", Table: "orders", Columns: []string{"orders_id"}},
		},
	})
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}

	// Oracle: orders_id is exactly 0..N-1, so a lineitem row joins iff
	// its FK value is below the parent cardinality.
	la := sys.ColumnData("lineitem", "lineitem_a")
	fk := sys.ColumnData("lineitem", "lineitem_ord")
	oracle := func(ta int64) int64 {
		var n int64
		for i := range la {
			if la[i] < ta && fk[i] < 1<<10 {
				n++
			}
		}
		return n
	}

	for _, ta := range []int64{0, 1 << 8, 1 << 11, 1 << 12} {
		q := plan.Query{TA: ta, TB: -1}
		want := oracle(ta)
		for _, p := range cw.Plans() {
			res := sys.Run(p, q)
			if res.Rows != want {
				t.Errorf("plan %s at TA=%d: %d rows, oracle says %d", p.ID, ta, res.Rows, want)
			}
			if res.Time <= 0 {
				t.Errorf("plan %s at TA=%d: non-positive time %v", p.ID, ta, res.Time)
			}
		}
	}
}

func TestBuildMultiRejects(t *testing.T) {
	cfg := multiConfig()
	cfg.IndexDefs[0].Columns = []string{"lineitem_a"}
	if _, err := BuildSystem("M", cfg); err == nil {
		t.Fatalf("index on another table's column accepted")
	}
	cfg = multiConfig()
	cfg.Tables[1].ForeignKeys[0].RefTable = "nope"
	if _, err := BuildSystem("M", cfg); err == nil {
		t.Fatalf("unknown FK ref accepted")
	}
	cfg = multiConfig()
	cfg.Indexes = []string{"a"}
	if _, err := BuildSystem("M", cfg); err == nil {
		t.Fatalf("Indexes shorthand accepted for multi build")
	}
}
