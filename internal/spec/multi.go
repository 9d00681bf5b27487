package spec

import "fmt"

// Multi-table catalogs.
//
// Every catalog is a list of tables; a single table is a one-table
// catalog holding the paper's lineitem-like relation. With two or more
// tables, each gets one derived schema (generated by datagen.Catalog):
//
//	<table>_id      int64   // 0..rows-1 in insertion order; join target
//	<table>_a       int64   // predicate column, permutation or Zipf
//	<table>_b       int64   // predicate column, permutation or Zipf
//	<fk column> ... int64   // one per declared foreign key, author-named
//	<table>_comment string  // payload padding
//
// Prefixing makes every column name unique across the catalog, so join
// outputs concatenate shapes without ambiguity and predicates resolve
// to their table by name alone. Foreign-key columns reference the
// parent table's <parent>_id: a fraction Containment of child rows hit
// an existing parent id (governing join selectivity), the rest draw
// from [parentRows, 2*parentRows) and never match; FanoutZipf skews
// which parents are referenced, skewing children-per-parent fanout.

// MaxJoinTables bounds the tables one query may join — left-deep
// enumeration over the FK graph is factorial in this.
const MaxJoinTables = 4

// ForeignKeySpec declares one foreign-key edge on a (child) table: an
// int64 column added to the child's derived schema whose values
// reference the parent table's <parent>_id column.
type ForeignKeySpec struct {
	// Column names the FK column in the child's schema. It must be
	// unique across the whole catalog (see the derived-schema comment
	// above).
	Column string `json:"column"`
	// RefTable names the referenced parent table.
	RefTable string `json:"ref_table"`
	// Containment is the fraction of child rows whose value matches an
	// existing parent id, in (0, 1]; 0 means 1.0. Non-matching rows
	// draw from [parentRows, 2*parentRows).
	Containment float64 `json:"containment,omitempty"`
	// FanoutZipf skews which parents are referenced (Zipf parameter,
	// must be > 1); 0 draws parents uniformly.
	FanoutZipf float64 `json:"fanout_zipf,omitempty"`
}

// Multi reports whether the catalog is multi-table: two or more
// declared tables, each with the derived schema above. A one-table
// catalog holds the paper's lineitem-like relation instead.
func (c *CatalogSpec) Multi() bool { return len(c.Tables) > 1 }

// TableByName returns the named table, or nil.
func (c *CatalogSpec) TableByName(name string) *TableSpec {
	for i := range c.Tables {
		if c.Tables[i].Name == name {
			return &c.Tables[i]
		}
	}
	return nil
}

// IDColumn returns the table's derived primary-key column name in a
// multi-table catalog.
func (t *TableSpec) IDColumn() string { return t.Name + "_id" }

// AColumn and BColumn return the table's derived predicate column
// names in a multi-table catalog.
func (t *TableSpec) AColumn() string { return t.Name + "_a" }
func (t *TableSpec) BColumn() string { return t.Name + "_b" }

// MultiColumns returns the table's derived column names in schema
// order for a multi-table catalog: id, a, b, the FK columns, comment.
func (t *TableSpec) MultiColumns() []string {
	out := []string{t.IDColumn(), t.AColumn(), t.BColumn()}
	for i := range t.ForeignKeys {
		out = append(out, t.ForeignKeys[i].Column)
	}
	return append(out, t.Name+"_comment")
}

// ForeignKey returns the table's FK declaration for the named column,
// or nil.
func (t *TableSpec) ForeignKey(column string) *ForeignKeySpec {
	for i := range t.ForeignKeys {
		if t.ForeignKeys[i].Column == column {
			return &t.ForeignKeys[i]
		}
	}
	return nil
}

// ColumnTable resolves a derived column name to the multi-table
// catalog's table that owns it, or nil.
func (c *CatalogSpec) ColumnTable(col string) *TableSpec {
	for i := range c.Tables {
		t := &c.Tables[i]
		for _, name := range t.MultiColumns() {
			if name == col {
				return t
			}
		}
	}
	return nil
}

// validateMulti checks the multi-table structural rules: per-table
// bounds as in the single-table case, plus FK resolvability and
// catalog-wide column-name uniqueness.
func (c *CatalogSpec) validateMulti() error {
	names := map[string]bool{}
	for i := range c.Tables {
		t := &c.Tables[i]
		if t.Name == "" {
			return fmt.Errorf("spec: table %d has no name", i)
		}
		if names[t.Name] {
			return fmt.Errorf("spec: duplicate table %q", t.Name)
		}
		names[t.Name] = true
		if t.Rows <= 0 {
			return fmt.Errorf("spec: table %q must declare rows > 0 (multi-table catalogs have no default cardinality)", t.Name)
		}
	}
	cols := map[string]string{} // derived column -> owning table
	for i := range c.Tables {
		t := &c.Tables[i]
		if err := t.validateScalar(); err != nil {
			return err
		}
		fkCols := map[string]bool{}
		for j := range t.ForeignKeys {
			fk := &t.ForeignKeys[j]
			if fk.Column == "" {
				return fmt.Errorf("spec: table %q foreign key %d has no column", t.Name, j)
			}
			if fkCols[fk.Column] {
				return fmt.Errorf("spec: table %q declares foreign-key column %q twice", t.Name, fk.Column)
			}
			fkCols[fk.Column] = true
			if fk.RefTable == t.Name {
				return fmt.Errorf("spec: table %q foreign key %q references its own table", t.Name, fk.Column)
			}
			if !names[fk.RefTable] {
				return fmt.Errorf("spec: table %q foreign key %q references unknown table %q", t.Name, fk.Column, fk.RefTable)
			}
			if fk.Containment < 0 || fk.Containment > 1 {
				return fmt.Errorf("spec: table %q foreign key %q containment must be in (0, 1] (or 0 for full containment), got %g",
					t.Name, fk.Column, fk.Containment)
			}
			if fk.FanoutZipf != 0 && fk.FanoutZipf <= 1 {
				return fmt.Errorf("spec: table %q foreign key %q fanout_zipf must be > 1 (or 0 for uniform), got %g",
					t.Name, fk.Column, fk.FanoutZipf)
			}
		}
		for _, col := range t.MultiColumns() {
			if owner, dup := cols[col]; dup {
				return fmt.Errorf("spec: derived column %q of table %q collides with a column of table %q (multi-table column names must be catalog-unique)",
					col, t.Name, owner)
			}
			cols[col] = t.Name
		}
		// Declared columns, when present, must match the derived schema
		// by name; types are the plan compiler's concern.
		if len(t.Columns) > 0 {
			derived := t.MultiColumns()
			if len(t.Columns) != len(derived) {
				return fmt.Errorf("spec: table %q declares %d columns; its derived multi-table schema has %d (%v)",
					t.Name, len(t.Columns), len(derived), derived)
			}
			for k, col := range t.Columns {
				if col.Name != derived[k] {
					return fmt.Errorf("spec: table %q column %d is %q; the derived multi-table schema has %q there",
						t.Name, k, col.Name, derived[k])
				}
			}
		}
	}
	ixNames := map[string]bool{}
	for i := range c.Indexes {
		ix := &c.Indexes[i]
		if ix.Name == "" {
			return fmt.Errorf("spec: index %d has no name", i)
		}
		if ixNames[ix.Name] {
			return fmt.Errorf("spec: duplicate index %q", ix.Name)
		}
		ixNames[ix.Name] = true
		if len(ix.Columns) == 0 {
			return fmt.Errorf("spec: index %q declares no columns", ix.Name)
		}
		t := c.Table()
		if ix.Table != "" {
			if t = c.TableByName(ix.Table); t == nil {
				return fmt.Errorf("spec: index %q references unknown table %q", ix.Name, ix.Table)
			}
		}
		for _, col := range ix.Columns {
			if owner := c.ColumnTable(col); owner == nil || owner.Name != t.Name {
				return fmt.Errorf("spec: index %q column %q is not a column of table %q", ix.Name, col, t.Name)
			}
		}
	}
	return nil
}

// validateScalar checks the per-table scalar bounds shared by the
// single- and multi-table paths.
func (t *TableSpec) validateScalar() error {
	if t.Rows < 0 {
		return fmt.Errorf("spec: table %q rows must not be negative, got %d", t.Name, t.Rows)
	}
	if t.PayloadBytes < 0 {
		return fmt.Errorf("spec: table %q payload_bytes must not be negative", t.Name)
	}
	if t.ZipfA != 0 && t.ZipfA <= 1 {
		return fmt.Errorf("spec: table %q zipf_a must be > 1 (or 0 for uniform), got %g", t.Name, t.ZipfA)
	}
	if t.ZipfB != 0 && t.ZipfB <= 1 {
		return fmt.Errorf("spec: table %q zipf_b must be > 1 (or 0 for uniform), got %g", t.Name, t.ZipfB)
	}
	cols := map[string]bool{}
	for _, col := range t.Columns {
		if col.Name == "" {
			return fmt.Errorf("spec: table %q declares a column with no name", t.Name)
		}
		if cols[col.Name] {
			return fmt.Errorf("spec: table %q declares column %q twice", t.Name, col.Name)
		}
		cols[col.Name] = true
		if !columnTypes[col.Type] {
			return fmt.Errorf("spec: table %q column %q has unknown type %q (want int64, float64, date, or string)",
				t.Name, col.Name, col.Type)
		}
	}
	return nil
}

// JoinSpec names one declared foreign-key edge a query joins along:
// Table is the FK's child table, Column its FK column. The edge
// equi-joins Table.Column with the referenced parent's id column.
type JoinSpec struct {
	Table  string `json:"table"`
	Column string `json:"column"`
}

// JoinEdge is a resolved JoinSpec: the child table, its FK column, the
// parent table, and the edge's correlation knobs.
type JoinEdge struct {
	Child       string
	FK          string
	Parent      string
	Containment float64 // normalized: 0 becomes 1
	FanoutZipf  float64
}

// JoinEdges resolves the query's joins against its catalog, in
// declaration order. It assumes the query validated.
func (q *QuerySpec) JoinEdges() []JoinEdge {
	var out []JoinEdge
	for _, j := range q.Joins {
		t := q.Catalog.TableByName(j.Table)
		if t == nil {
			continue
		}
		fk := t.ForeignKey(j.Column)
		if fk == nil {
			continue
		}
		c := fk.Containment
		if c == 0 {
			c = 1
		}
		out = append(out, JoinEdge{
			Child: j.Table, FK: j.Column, Parent: fk.RefTable,
			Containment: c, FanoutZipf: fk.FanoutZipf,
		})
	}
	return out
}

// Tables returns every table the query touches, primary table first,
// then join-added tables in join declaration order.
func (q *QuerySpec) Tables() []string {
	out := []string{q.Table}
	seen := map[string]bool{q.Table: true}
	for _, e := range q.JoinEdges() {
		for _, t := range []string{e.Child, e.Parent} {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// validateJoins checks the query's join clauses: each names a declared
// FK edge, edges are distinct, and the touched tables form one
// connected tree that includes the primary table.
func (q *QuerySpec) validateJoins() error {
	if len(q.Joins) == 0 {
		if q.Catalog.Multi() {
			return fmt.Errorf("spec: query %q runs over a multi-table catalog but declares no joins", q.Name)
		}
		return nil
	}
	if !q.Catalog.Multi() {
		return fmt.Errorf("spec: query %q declares joins over a single-table catalog", q.Name)
	}
	seen := map[JoinSpec]bool{}
	for _, j := range q.Joins {
		if j.Table == "" || j.Column == "" {
			return fmt.Errorf("spec: query %q join must name a table and a foreign-key column", q.Name)
		}
		t := q.Catalog.TableByName(j.Table)
		if t == nil {
			return fmt.Errorf("spec: query %q join references unknown table %q", q.Name, j.Table)
		}
		if t.ForeignKey(j.Column) == nil {
			return fmt.Errorf("spec: query %q join references %q.%q, which is not a declared foreign key", q.Name, j.Table, j.Column)
		}
		if seen[j] {
			return fmt.Errorf("spec: query %q joins edge %q.%q twice", q.Name, j.Table, j.Column)
		}
		seen[j] = true
	}
	edges := q.JoinEdges()
	tables := q.Tables()
	if len(tables) > MaxJoinTables {
		return fmt.Errorf("spec: query %q joins %d tables; at most %d are supported", q.Name, len(tables), MaxJoinTables)
	}
	if len(tables) != len(edges)+1 {
		return fmt.Errorf("spec: query %q joins must form a tree: %d edges over %d tables", q.Name, len(edges), len(tables))
	}
	// Tree connectivity including the primary table: flood from q.Table.
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e.Child] = append(adj[e.Child], e.Parent)
		adj[e.Parent] = append(adj[e.Parent], e.Child)
	}
	reached := map[string]bool{q.Table: true}
	frontier := []string{q.Table}
	for len(frontier) > 0 {
		t := frontier[0]
		frontier = frontier[1:]
		for _, n := range adj[t] {
			if !reached[n] {
				reached[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	for _, t := range tables {
		if !reached[t] {
			return fmt.Errorf("spec: query %q join graph does not connect table %q to %q", q.Name, t, q.Table)
		}
	}
	return nil
}
