package plan_test

import (
	"strings"
	"testing"

	"robustmap/internal/datagen"
	"robustmap/internal/engine"
	"robustmap/internal/plan"
	"robustmap/internal/spec"
)

// TestPaperWorkloadGolden pins that the embedded workload compiles to
// exactly the ids, systems, and descriptions the hand-written
// constructors carried — the golden record of the pre-spec plan.go.
func TestPaperWorkloadGolden(t *testing.T) {
	golden := []struct{ id, system, desc string }{
		{"A1", "A", "table scan, all predicates applied to every row"},
		{"A2", "A", "idx(a) range scan, improved fetch, residual b predicate"},
		{"A3", "A", "idx(b) range scan, improved fetch, residual a predicate"},
		{"A4", "A", "merge-join intersection idx(a) ⋂ idx(b), improved fetch"},
		{"A5", "A", "merge-join intersection idx(b) ⋂ idx(a), improved fetch"},
		{"A6", "A", "hash intersection, build idx(a), probe idx(b), improved fetch"},
		{"A7", "A", "hash intersection, build idx(b), probe idx(a), improved fetch"},
		{"B1", "B", "idx(a,b) entry filter, bitmap-sorted fetch of base rows"},
		{"B2", "B", "idx(b,a) entry filter, bitmap-sorted fetch of base rows"},
		{"B3", "B", "idx(a) range scan, bitmap-sorted fetch, residual b predicate"},
		{"B4", "B", "idx(b) range scan, bitmap-sorted fetch, residual a predicate"},
		{"C1", "C", "MDAM over covering idx(a,b), index-only"},
		{"C2", "C", "MDAM over covering idx(b,a), index-only"},
	}
	all := plan.AllPlans()
	if len(all) != len(golden) {
		t.Fatalf("AllPlans() = %d plans, want %d", len(all), len(golden))
	}
	for i, g := range golden {
		p := all[i]
		if p.ID != g.id || p.System != g.system || p.Description != g.desc {
			t.Errorf("plan %d = (%s, %s, %q), want (%s, %s, %q)",
				i, p.ID, p.System, p.Description, g.id, g.system, g.desc)
		}
	}
	extras := map[string]string{
		"F1-trad":     "idx(a) range scan, traditional row-at-a-time fetch",
		"F2-merge-ab": "covering index join idx(a)⨝idx(b) on RID (merge, build-a)",
		"F2-merge-ba": "covering index join idx(a)⨝idx(b) on RID (merge, build-b)",
		"F2-hash-ab":  "covering index join idx(a)⨝idx(b) on RID (hash, build-a)",
		"F2-hash-ba":  "covering index join idx(a)⨝idx(b) on RID (hash, build-b)",
	}
	for _, p := range plan.Figure2Plans() {
		want, ok := extras[p.ID]
		if !ok {
			continue
		}
		if p.Description != want || p.System != "A" {
			t.Errorf("plan %s = (%s, %q), want (A, %q)", p.ID, p.System, p.Description, want)
		}
	}
	// The embedded sweep section names the 13 study plans.
	if got := plan.PaperWorkload().SweepPlans(); len(got) != 13 {
		t.Errorf("paper workload sweep plans = %v, want the 13 study plans", got)
	}
}

// minimalWorkload returns a small valid workload to mutate in error
// tests.
func minimalWorkload() *spec.WorkloadSpec {
	return &spec.WorkloadSpec{
		Name: "t",
		Catalog: spec.CatalogSpec{
			Tables:  []spec.TableSpec{{Name: "lineitem"}},
			Indexes: []spec.IndexSpec{{Name: "idx_a", Columns: []string{"a"}}},
		},
		Systems: []spec.SystemSpec{{
			Name:    "S",
			Indexes: []string{"idx_a"},
			Plans: []spec.PlanSpec{{
				ID: "p1",
				Root: &spec.PlanNode{Op: "table_scan", Table: "lineitem",
					Preds: []spec.PredSpec{{Column: "a", Hi: &spec.ValueSpec{Param: "ta"}}}},
			}},
		}},
		Sweep: spec.SweepSpec{MaxExp: 2},
	}
}

// TestCompileErrors pins the compiler's stable error messages for the
// failure classes the issue names: unknown ops, schema/ordinal
// mismatches, and index references.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*spec.WorkloadSpec)
		wantErr string
	}{
		{
			name: "unknown op",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root.Op = "quantum_scan"
			},
			wantErr: `plan: plan "p1": unknown op "quantum_scan" (known: `,
		},
		{
			name: "field not used by op",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root = &spec.PlanNode{
					Op: "fetch", Kind: "improved", Table: "lineitem",
					Input: &spec.PlanNode{Op: "index_scan", Index: "idx_a",
						Preds: []spec.PredSpec{{Column: "a", Hi: &spec.ValueSpec{Param: "ta"}}}},
				}
			},
			wantErr: `plan: plan "p1": index_scan: field "preds" is not used by this op (index_scan takes: index, lo, hi)`,
		},
		{
			name: "unknown predicate column",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root.Preds[0].Column = "c"
			},
			wantErr: `plan: plan "p1": table_scan: predicate column "c" is not in the input row`,
		},
		{
			name: "predicate on non-int column",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root.Preds[0].Column = "comment"
			},
			wantErr: `plan: plan "p1": table_scan: predicate column "comment" has type string; predicates take int64 columns`,
		},
		{
			name: "unknown table",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root.Table = "orders"
			},
			wantErr: `plan: plan "p1": table_scan: unknown table "orders" (catalog table is "lineitem")`,
		},
		{
			name: "index not defined",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root = &spec.PlanNode{
					Op: "fetch", Kind: "improved", Table: "lineitem",
					Input: &spec.PlanNode{Op: "index_scan", Index: "idx_z"},
				}
			},
			wantErr: `plan: plan "p1": index_scan: unknown index "idx_z"`,
		},
		{
			name: "index not built by system",
			mutate: func(w *spec.WorkloadSpec) {
				w.Catalog.Indexes = append(w.Catalog.Indexes,
					spec.IndexSpec{Name: "idx_b", Columns: []string{"b"}})
				w.Systems[0].Plans[0].Root = &spec.PlanNode{
					Op: "fetch", Kind: "improved", Table: "lineitem",
					Input: &spec.PlanNode{Op: "index_scan", Index: "idx_b"},
				}
			},
			wantErr: `plan: plan "p1": index_scan: index "idx_b" is not built by system "S"`,
		},
		{
			name: "index references unknown column",
			mutate: func(w *spec.WorkloadSpec) {
				w.Catalog.Indexes[0].Columns = []string{"zz"}
			},
			wantErr: `plan: index "idx_a" references unknown column "zz"`,
		},
		{
			name: "fetch kind",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root = &spec.PlanNode{
					Op: "fetch", Kind: "telepathic", Table: "lineitem",
					Input: &spec.PlanNode{Op: "index_scan", Index: "idx_a"},
				}
			},
			wantErr: `plan: plan "p1": fetch: unknown kind "telepathic"`,
		},
		{
			name: "row root required",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root = &spec.PlanNode{Op: "index_scan", Index: "idx_a"}
			},
			wantErr: `plan: plan "p1": root index_scan produces RIDs`,
		},
		{
			name: "fetch wants RID input",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root = &spec.PlanNode{
					Op: "fetch", Kind: "bitmap", Table: "lineitem",
					Input: &spec.PlanNode{Op: "table_scan", Table: "lineitem"},
				}
			},
			wantErr: `plan: plan "p1": fetch: fetch input table_scan produces rows, want RIDs`,
		},
		{
			name: "mdam in versioned system",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Versioned = true
				w.Catalog.Indexes[0] = spec.IndexSpec{Name: "idx_a", Columns: []string{"a", "b"}}
				w.Systems[0].Plans[0].Root = &spec.PlanNode{
					Op: "mdam_scan", Index: "idx_a",
					Lead:   &spec.MDAMSetSpec{Op: "all"},
					Second: &spec.MDAMSetSpec{Op: "all"},
				}
			},
			wantErr: `plan: plan "p1": mdam_scan: index "idx_a" is not covering in versioned system "S"`,
		},
		{
			name: "declared schema mismatch",
			mutate: func(w *spec.WorkloadSpec) {
				w.Catalog.Tables[0].Columns = []spec.ColumnSpec{{Name: "x", Type: "int64"}}
			},
			wantErr: `plan: table "lineitem" declares 1 columns; the generator produces 7`,
		},
		{
			name: "absent_all on a non-tb set",
			mutate: func(w *spec.WorkloadSpec) {
				w.Catalog.Indexes[0] = spec.IndexSpec{Name: "idx_a", Columns: []string{"a", "b"}}
				w.Systems[0].Plans[0].Root = &spec.PlanNode{
					Op: "mdam_scan", Index: "idx_a",
					Lead:   &spec.MDAMSetSpec{Op: "lt", Value: &spec.ValueSpec{Param: "ta"}, AbsentAll: true},
					Second: &spec.MDAMSetSpec{Op: "all"},
				}
			},
			wantErr: `plan: plan "p1": mdam_scan: absent_all only applies to an "lt" set whose value is param "tb"`,
		},
		{
			name: "limit without a bound",
			mutate: func(w *spec.WorkloadSpec) {
				w.Systems[0].Plans[0].Root = &spec.PlanNode{
					Op: "limit", Input: &spec.PlanNode{Op: "table_scan", Table: "lineitem"},
				}
			},
			wantErr: `plan: plan "p1": limit: n must be positive, got 0`,
		},
		{
			name: "join key arity",
			mutate: func(w *spec.WorkloadSpec) {
				scan := func() *spec.PlanNode { return &spec.PlanNode{Op: "table_scan", Table: "lineitem"} }
				w.Systems[0].Plans[0].Root = &spec.PlanNode{
					Op: "merge_join", Left: scan(), Right: scan(),
					LeftKeys: []string{"a"}, RightKeys: []string{"a", "b"},
				}
			},
			wantErr: `plan: plan "p1": merge_join: key arity mismatch: 1 left_keys vs 2 right_keys`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := minimalWorkload()
			tc.mutate(w)
			_, err := plan.CompileWorkload(w)
			if err == nil {
				t.Fatalf("CompileWorkload succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCompileFullOperatorVocabulary compiles and executes a plan using
// the row combinators the paper plans never touch — filter, project,
// sort, limit, aggregation, joins — so every registry entry is proven
// against a live system, not just validated.
func TestCompileFullOperatorVocabulary(t *testing.T) {
	ws := minimalWorkload()
	ws.Catalog.Tables[0].Rows = 512
	ws.Catalog.Indexes = append(ws.Catalog.Indexes,
		spec.IndexSpec{Name: "idx_ab", Columns: []string{"a", "b"}})
	ws.Systems[0].Indexes = []string{"idx_a", "idx_ab"}
	scan := func() *spec.PlanNode {
		return &spec.PlanNode{Op: "table_scan", Table: "lineitem",
			Preds: []spec.PredSpec{{Column: "a", Hi: &spec.ValueSpec{Param: "ta"}}}}
	}
	ws.Systems[0].Plans = []spec.PlanSpec{
		{ID: "agg-sorted", Root: &spec.PlanNode{
			Op: "stream_agg",
			Aggs: []spec.AggSpec{
				{Fn: "count"}, {Fn: "sum", Column: "quantity"},
				{Fn: "min", Column: "b"}, {Fn: "max", Column: "b"},
			},
			Input: &spec.PlanNode{Op: "sort", Keys: []string{"b"},
				Input: &spec.PlanNode{Op: "filter",
					Preds: []spec.PredSpec{{Column: "b", Lo: &spec.ValueSpec{Const: ptr(int64(0))}}},
					Input: scan()}},
		}},
		{ID: "projected", Root: &spec.PlanNode{
			Op: "limit", N: 10,
			Input: &spec.PlanNode{Op: "project", Columns: []string{"a", "b"},
				Input: &spec.PlanNode{Op: "covering_index_scan", Index: "idx_ab",
					Hi: &spec.ValueSpec{Param: "ta"}}},
		}},
		{ID: "joined", Root: &spec.PlanNode{
			Op:    "hash_agg",
			Aggs:  []spec.AggSpec{{Fn: "count"}},
			Input: &spec.PlanNode{Op: "hash_join", Build: scan(), Probe: scan(), BuildKeys: []string{"a"}, ProbeKeys: []string{"a"}},
		}},
		{ID: "nested", Root: &spec.PlanNode{
			Op: "spill_agg", Aggs: []spec.AggSpec{{Fn: "count"}},
			Input: &spec.PlanNode{Op: "index_nlj", Index: "idx_a", OuterKey: "a",
				Outer: &spec.PlanNode{Op: "limit", N: 4, Input: scan()}},
		}},
		{ID: "merged", Root: &spec.PlanNode{
			Op:   "merge_join",
			Left: &spec.PlanNode{Op: "sort", Keys: []string{"a"}, Input: scan()},
			Right: &spec.PlanNode{Op: "sort", Keys: []string{"a"},
				Input: &spec.PlanNode{Op: "nlj", Outer: scan(), Inner: scan(),
					OuterKeys: []string{"a"}, InnerKeys: []string{"a"}}},
			LeftKeys: []string{"a"}, RightKeys: []string{"a"},
		}},
	}
	cw, err := plan.CompileWorkload(ws)
	if err != nil {
		t.Fatalf("CompileWorkload: %v", err)
	}
	sys := buildWorkloadSystem(t, ws)
	for _, p := range cw.Plans() {
		res := sys.Run(p, plan.Query{TA: 64, TB: -1})
		if res.Rows < 0 {
			t.Errorf("plan %s: negative row count", p.ID)
		}
		if res.Time <= 0 {
			t.Errorf("plan %s: no cost charged", p.ID)
		}
	}
	// Spot-check semantics: agg-sorted groups everything into one row;
	// projected is capped by its limit.
	if got := sys.Run(cw.Plans()[0], plan.Query{TA: 64, TB: -1}).Rows; got != 1 {
		t.Errorf("agg-sorted rows = %d, want 1 (single group)", got)
	}
	if got := sys.Run(cw.Plans()[1], plan.Query{TA: 64, TB: -1}).Rows; got != 10 {
		t.Errorf("projected rows = %d, want 10 (limit)", got)
	}
}

func ptr[T any](v T) *T { return &v }

// buildWorkloadSystem builds the engine system behind a workload's
// first system spec — the same translation the service resolver does.
func buildWorkloadSystem(t *testing.T, ws *spec.WorkloadSpec) *engine.System {
	t.Helper()
	sysSpec := &ws.Systems[0]
	cfg := engine.DefaultConfig()
	if ws.Catalog.Tables[0].Rows > 0 {
		cfg.Rows = ws.Catalog.Tables[0].Rows
	}
	cfg.Versioned = sysSpec.Versioned
	cfg.Tables = datagen.FromSpec(&ws.Catalog, cfg.Rows, cfg.Seed)
	cfg.Indexes = nil
	for _, name := range sysSpec.Indexes {
		def := ws.Catalog.Index(name)
		cfg.IndexDefs = append(cfg.IndexDefs, engine.IndexDef{Name: def.Name, Columns: def.Columns})
	}
	sys, err := engine.BuildSystem(sysSpec.Name, cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	return sys
}

// BenchmarkWorkloadCompile pins that spec compilation is off the hot
// path: the full paper workload (3 systems, 18 plan trees) compiles
// once per job in microseconds, and the compiled Build closures are
// what sweeps invoke per cell — see BenchmarkCompiledPlanCell for the
// proof that per-cell cost is unchanged vs. the legacy constructors.
func BenchmarkWorkloadCompile(b *testing.B) {
	ws := plan.PaperWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.CompileWorkload(ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledPlanCell measures one sweep cell (build + drain)
// through a spec-compiled plan and through the frozen legacy
// constructor. The two must track each other: compilation resolved
// everything up front, so the per-cell path does identical work.
func BenchmarkCompiledPlanCell(b *testing.B) {
	sys, err := engine.SystemA(equivConfig())
	if err != nil {
		b.Fatal(err)
	}
	q := plan.Query{TA: 256, TB: 256}
	b.Run("spec", func(b *testing.B) {
		p := plan.ByID(plan.AllPlans(), "A2")
		for i := 0; i < b.N; i++ {
			sys.RunShared(p, q)
		}
	})
	b.Run("legacy", func(b *testing.B) {
		p := legacyPlans()["A2"]
		for i := 0; i < b.N; i++ {
			sys.RunShared(p, q)
		}
	})
}
