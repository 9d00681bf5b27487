// Package datagen generates the synthetic tables of the experiments. A
// Catalog lists the tables; its length decides their shape. A single
// table is the paper's TPC-H-lineitem-flavoured relation, whose two
// predicate columns are independent permutations of [0, rows), so that
// a range predicate col < t selects exactly t rows. Two or more tables
// get one derived join schema each, correlated by foreign-key columns.
//
// The paper ran against TPC-H lineitem (~60 M rows) and swept predicate
// selectivities from 2⁻¹⁶ up to 1 in factor-of-two steps. Exact-count
// permutation columns reproduce those sweeps without cardinality noise:
// selecting a fraction 2⁻ᵏ of the table is the predicate a < rows>>k.
//
// The physical row order (insertion order) is uncorrelated with both
// predicate columns — the scatter that makes unsorted RID fetching pay one
// random I/O per row, as in the paper's "traditional" index scan.
package datagen

import (
	"fmt"
	"math/rand"

	"robustmap/internal/record"
	"robustmap/internal/spec"
)

// Table configures one generated table.
type Table struct {
	// Name names the table; the derived join schema prefixes its column
	// names with it.
	Name string
	// Rows is the table cardinality.
	Rows int64
	// Seed drives all pseudo-randomness; equal tables generate equal data.
	Seed int64
	// PayloadBytes pads each row with a comment string to reach a realistic
	// row width (TPC-H lineitem rows are ~120 bytes). Zero means default.
	PayloadBytes int
	// ZipfA, if > 1, replaces predicate column a's uniform permutation with
	// a Zipf distribution of that parameter (duplicates appear, selectivity
	// is no longer exact).
	ZipfA float64
	// ZipfB is the analogous option for predicate column b.
	ZipfB float64
	// ForeignKeys adds one int64 column per entry to a multi-table
	// catalog's derived schema.
	ForeignKeys []ForeignKey
}

// ForeignKey configures one generated foreign-key column: its values
// reference RefTable's id column (0..rows-1 in insertion order), so a
// value v < parent rows matches exactly one parent row.
type ForeignKey struct {
	// Column names the FK column.
	Column string
	// RefTable names the referenced table of the same catalog.
	RefTable string
	// Containment is the fraction of rows whose value matches an
	// existing parent id, in (0, 1]; 0 means 1.0. The rest draw from
	// [parentRows, 2*parentRows) and never match.
	Containment float64
	// FanoutZipf, if > 1, skews which parents are referenced (Zipf
	// parameter); 0 draws parents uniformly.
	FanoutZipf float64
}

// Catalog is the list of generated tables. A one-table catalog is the
// paper's lineitem relation; two or more tables get derived join
// schemas (see Schema).
type Catalog []Table

// DefaultPayloadBytes pads rows to roughly lineitem width.
const DefaultPayloadBytes = 64

// FromSpec maps a spec catalog onto the generator. rows, when > 0, is
// the first (axis) table's cardinality — a request's row override or
// default; seed is the base seed a one-table catalog uses when its table
// declares none. The tables of a multi-table catalog keep their declared
// seeds, 0 included.
func FromSpec(c *spec.CatalogSpec, rows, seed int64) Catalog {
	out := make(Catalog, len(c.Tables))
	for i := range c.Tables {
		t := &c.Tables[i]
		out[i] = Table{Name: t.Name, Rows: t.Rows, Seed: t.Seed, PayloadBytes: t.PayloadBytes,
			ZipfA: t.ZipfA, ZipfB: t.ZipfB}
		for _, fk := range t.ForeignKeys {
			out[i].ForeignKeys = append(out[i].ForeignKeys, ForeignKey{Column: fk.Column,
				RefTable: fk.RefTable, Containment: fk.Containment, FanoutZipf: fk.FanoutZipf})
		}
	}
	if len(out) > 0 && rows > 0 {
		out[0].Rows = rows
	}
	if len(out) == 1 && out[0].Seed == 0 {
		out[0].Seed = seed
	}
	return out
}

// Validate reports whether the catalog is usable.
func (c Catalog) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("datagen: no tables")
	}
	for _, t := range c {
		if t.Rows <= 0 {
			return fmt.Errorf("datagen: table %q Rows = %d, want > 0", t.Name, t.Rows)
		}
		if t.PayloadBytes < 0 {
			return fmt.Errorf("datagen: table %q has negative PayloadBytes", t.Name)
		}
		if t.ZipfA != 0 && t.ZipfA <= 1 {
			return fmt.Errorf("datagen: table %q ZipfA must be > 1 or 0", t.Name)
		}
		if t.ZipfB != 0 && t.ZipfB <= 1 {
			return fmt.Errorf("datagen: table %q ZipfB must be > 1 or 0", t.Name)
		}
		if len(c) == 1 && len(t.ForeignKeys) > 0 {
			return fmt.Errorf("datagen: table %q declares foreign keys in a one-table catalog", t.Name)
		}
		for _, fk := range t.ForeignKeys {
			if c.Lookup(fk.RefTable) < 0 {
				return fmt.Errorf("datagen: table %q FK column %q references unknown table %q", t.Name, fk.Column, fk.RefTable)
			}
			if fk.Containment < 0 || fk.Containment > 1 {
				return fmt.Errorf("datagen: FK column %q Containment = %g, want (0, 1] or 0", fk.Column, fk.Containment)
			}
			if fk.FanoutZipf != 0 && fk.FanoutZipf <= 1 {
				return fmt.Errorf("datagen: FK column %q FanoutZipf = %g, want > 1 or 0", fk.Column, fk.FanoutZipf)
			}
		}
	}
	if len(c) > 1 {
		seen := map[string]bool{}
		for _, t := range c {
			if t.Name == "" || seen[t.Name] {
				return fmt.Errorf("datagen: table name %q is empty or duplicate", t.Name)
			}
			seen[t.Name] = true
		}
	}
	return nil
}

// Lookup returns the index of the named table, or -1.
func (c Catalog) Lookup(name string) int {
	for i := range c {
		if c[i].Name == name {
			return i
		}
	}
	return -1
}

// Schema returns table i's schema. The one table of a one-table catalog
// has the paper's lineitem-like schema:
//
//	orderkey  BIGINT   — 0..rows-1, the insertion order
//	a         BIGINT   — predicate column A (permutation of [0, rows))
//	b         BIGINT   — predicate column B (independent permutation)
//	quantity  DOUBLE   — 1..50
//	price     DOUBLE   — derived from quantity
//	shipdate  DATE     — ~7 years of days
//	comment   VARCHAR  — payload padding
//
// Each table of a multi-table catalog has the derived join schema
// <t>_id, <t>_a, <t>_b, one int64 column per foreign key (author-named),
// <t>_comment. Both shapes lead with the id and the two predicate
// columns.
func (c Catalog) Schema(i int) *record.Schema {
	if len(c) == 1 {
		return record.NewSchema(
			record.Column{Name: "orderkey", Type: record.TypeInt64},
			record.Column{Name: "a", Type: record.TypeInt64},
			record.Column{Name: "b", Type: record.TypeInt64},
			record.Column{Name: "quantity", Type: record.TypeFloat64},
			record.Column{Name: "price", Type: record.TypeFloat64},
			record.Column{Name: "shipdate", Type: record.TypeDate},
			record.Column{Name: "comment", Type: record.TypeString},
		)
	}
	t := c[i]
	cols := []record.Column{
		{Name: t.Name + "_id", Type: record.TypeInt64},
		{Name: t.Name + "_a", Type: record.TypeInt64},
		{Name: t.Name + "_b", Type: record.TypeInt64},
	}
	for _, fk := range t.ForeignKeys {
		cols = append(cols, record.Column{Name: fk.Column, Type: record.TypeInt64})
	}
	cols = append(cols, record.Column{Name: t.Name + "_comment", Type: record.TypeString})
	return record.NewSchema(cols...)
}

// Generate streams table i's rows in insertion order, matching
// Schema(i). The row slice is reused between calls; the consumer must
// copy or encode it before returning.
//
// The draws happen in one fixed order: the a column, the b column, one
// sub-seed per foreign key, then the per-row draws of the lineitem
// shape (quantity and price).
func (c Catalog) Generate(i int, fn func(row []record.Value) error) error {
	if err := c.Validate(); err != nil {
		return err
	}
	t := c[i]
	payload := t.PayloadBytes
	if payload == 0 {
		payload = DefaultPayloadBytes
	}
	rng := rand.New(rand.NewSource(t.Seed))

	colA := permutedColumn(t.Rows, t.ZipfA, rng)
	colB := permutedColumn(t.Rows, t.ZipfB, rng)
	fkCols := make([]func(int64) int64, len(t.ForeignKeys))
	for j, fk := range t.ForeignKeys {
		fkCols[j] = fkColumn(t.Rows, c[c.Lookup(fk.RefTable)].Rows, fk, rng)
	}

	lineitem := len(c) == 1
	width := 4 + len(fkCols)
	if lineitem {
		width = 7
	}
	comment := make([]byte, payload)
	row := make([]record.Value, width)
	for r := int64(0); r < t.Rows; r++ {
		for j := range comment {
			comment[j] = byte('a' + (r+int64(j))%26)
		}
		row[0] = record.Int(r)
		row[1] = record.Int(colA(r))
		row[2] = record.Int(colB(r))
		if lineitem {
			qty := float64(rng.Intn(50) + 1)
			row[3] = record.Float(qty)
			row[4] = record.Float(qty * (900 + float64(rng.Intn(200))))
			row[5] = record.Date(10000 + r%2557) // ~7 years of ship dates
		}
		for j := range fkCols {
			row[3+j] = record.Int(fkCols[j](r))
		}
		row[width-1] = record.String_(string(comment))
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// permutedColumn returns an accessor for a predicate column: either an
// exact permutation of [0, rows) or a Zipf draw.
func permutedColumn(rows int64, zipf float64, rng *rand.Rand) func(int64) int64 {
	if zipf > 1 {
		z := rand.NewZipf(rand.New(rand.NewSource(rng.Int63())), zipf, 1, uint64(rows-1))
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(z.Uint64())
		}
		return func(i int64) int64 { return vals[i] }
	}
	perm := rng.Perm(int(rows))
	return func(i int64) int64 { return int64(perm[i]) }
}

// fkColumn materializes one foreign-key column up front (like the
// Zipf predicate columns) so each column's draws are independent of
// the others.
func fkColumn(rows, parentRows int64, fk ForeignKey, rng *rand.Rand) func(int64) int64 {
	sub := rand.New(rand.NewSource(rng.Int63()))
	containment := fk.Containment
	if containment == 0 {
		containment = 1
	}
	var parent func() int64
	if fk.FanoutZipf > 1 {
		z := rand.NewZipf(sub, fk.FanoutZipf, 1, uint64(parentRows-1))
		parent = func() int64 { return int64(z.Uint64()) }
	} else {
		parent = func() int64 { return sub.Int63n(parentRows) }
	}
	vals := make([]int64, rows)
	for i := range vals {
		if containment < 1 && sub.Float64() >= containment {
			// Dangling: an id no parent row has.
			vals[i] = parentRows + sub.Int63n(parentRows)
		} else {
			vals[i] = parent()
		}
	}
	return func(i int64) int64 { return vals[i] }
}

// SelectivityThreshold returns the predicate threshold t such that
// "col < t" selects the given fraction of a permutation column, and the
// exact number of rows it selects.
func SelectivityThreshold(rows int64, fraction float64) (threshold int64, selected int64) {
	if fraction <= 0 {
		return 0, 0
	}
	if fraction >= 1 {
		return rows, rows
	}
	t := int64(fraction * float64(rows))
	return t, t
}

// PowerOfTwoFractions returns the sweep fractions 2⁻ᵏ for k = maxExp..0,
// ascending — the x-axis of the paper's Figure 1 (there: 2⁻¹⁶ … 2⁰).
func PowerOfTwoFractions(maxExp int) []float64 {
	out := make([]float64, 0, maxExp+1)
	for k := maxExp; k >= 0; k-- {
		out = append(out, 1/float64(int64(1)<<uint(k)))
	}
	return out
}
