package datagen

import (
	"reflect"
	"testing"

	"robustmap/internal/record"
	"robustmap/internal/spec"
)

// collectFK generates a child table with one FK column referencing a
// parent table of the given cardinality and returns the FK values.
func collectFK(t *testing.T, child Table, parents int64, fk ForeignKey) []int64 {
	t.Helper()
	fk.RefTable = "parent"
	child.Name, child.ForeignKeys = "child", []ForeignKey{fk}
	var vals []int64
	err := Catalog{{Name: "parent", Rows: parents}, child}.Generate(1, func(row []record.Value) error {
		vals = append(vals, row[3].AsInt())
		return nil
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return vals
}

func TestJoinSchemaShape(t *testing.T) {
	s := Catalog{{Name: "customer"}, {Name: "orders", ForeignKeys: []ForeignKey{{Column: "orders_cust"}}}}.Schema(1)
	want := []string{"orders_id", "orders_a", "orders_b", "orders_cust", "orders_comment"}
	if s.NumColumns() != len(want) {
		t.Fatalf("schema has %d columns, want %d", s.NumColumns(), len(want))
	}
	for i, name := range want {
		if s.Columns()[i].Name != name {
			t.Fatalf("column %d = %q, want %q", i, s.Columns()[i].Name, name)
		}
	}
}

func TestFKContainment(t *testing.T) {
	const rows, parents = 8192, 1024
	vals := collectFK(t, Table{Rows: rows, Seed: 7}, parents, ForeignKey{Column: "fk", Containment: 0.75})
	var contained, dangling int
	for _, v := range vals {
		switch {
		case v >= 0 && v < parents:
			contained++
		case v >= parents && v < 2*parents:
			dangling++
		default:
			t.Fatalf("FK value %d outside [0, %d)", v, 2*parents)
		}
	}
	frac := float64(contained) / float64(rows)
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("contained fraction = %.3f, want ~0.75", frac)
	}
	if dangling == 0 {
		t.Fatalf("no dangling FK values at containment 0.75")
	}
}

func TestFKFullContainmentAndDeterminism(t *testing.T) {
	const rows, parents = 4096, 512
	a := collectFK(t, Table{Rows: rows, Seed: 11}, parents, ForeignKey{Column: "fk"})
	for _, v := range a {
		if v < 0 || v >= parents {
			t.Fatalf("FK value %d escapes [0, %d) at full containment", v, parents)
		}
	}
	b := collectFK(t, Table{Rows: rows, Seed: 11}, parents, ForeignKey{Column: "fk"})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation is not deterministic at row %d", i)
		}
	}
}

func TestFKFanoutSkew(t *testing.T) {
	const rows, parents = 8192, 256
	uniform := collectFK(t, Table{Rows: rows, Seed: 3}, parents, ForeignKey{Column: "fk"})
	skewed := collectFK(t, Table{Rows: rows, Seed: 3}, parents, ForeignKey{Column: "fk", FanoutZipf: 1.5})
	maxFanout := func(vals []int64) int {
		counts := make([]int, parents)
		for _, v := range vals {
			counts[v]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return max
	}
	if mu, ms := maxFanout(uniform), maxFanout(skewed); ms <= 2*mu {
		t.Fatalf("Zipf fanout max %d not clearly above uniform max %d", ms, mu)
	}
}

// TestFromSpec pins the spec-to-generator defaults: rows sizes the axis
// table, the base seed fills a one-table catalog's missing seed, and a
// multi-table catalog keeps its declared seeds as given.
func TestFromSpec(t *testing.T) {
	one := &spec.CatalogSpec{Tables: []spec.TableSpec{{Name: "lineitem", Rows: 10, ZipfB: 1.5}}}
	got := FromSpec(one, 64, 2009)
	want := Catalog{{Name: "lineitem", Rows: 64, Seed: 2009, ZipfB: 1.5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("one-table catalog: %+v, want %+v", got, want)
	}
	if got := FromSpec(one, 0, 2009); got[0].Rows != 10 {
		t.Errorf("rows 0 kept %d rows, want the declared 10", got[0].Rows)
	}
	multi := &spec.CatalogSpec{Tables: []spec.TableSpec{
		{Name: "orders", Rows: 100, ForeignKeys: []spec.ForeignKeySpec{
			{Column: "ord_cust", RefTable: "customer", Containment: 0.5, FanoutZipf: 1.2}}},
		{Name: "customer", Rows: 10, Seed: 3, PayloadBytes: 8},
	}}
	got = FromSpec(multi, 100, 2009)
	want = Catalog{
		{Name: "orders", Rows: 100, ForeignKeys: []ForeignKey{
			{Column: "ord_cust", RefTable: "customer", Containment: 0.5, FanoutZipf: 1.2}}},
		{Name: "customer", Rows: 10, Seed: 3, PayloadBytes: 8},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-table catalog: %+v, want %+v", got, want)
	}
}
