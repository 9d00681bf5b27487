// Package spec defines declarative, JSON-serializable workload
// specifications: a catalog (table, value distributions, indexes), plans
// as operator trees over that catalog, and the sweep to draw over them.
//
// A WorkloadSpec is the wire-format counterpart of everything the plan
// and engine packages otherwise hard-code: where internal/plan's paper
// constructors are Go functions compiled into the binary, a spec travels
// through service.Request, so any scenario — new predicates, new index
// sets, skewed distributions, operator shapes the paper never measured —
// can be swept against a running daemon without recompiling anything.
// The paper's own 13-plan study ships as one embedded WorkloadSpec (see
// plan.PaperWorkload) compiled through the same path.
//
// The package is deliberately dumb: it knows JSON shapes and structural
// rules (names present, references resolvable, exactly one of param or
// const, …) but nothing about operators or schemas. Operator semantics —
// which ops exist, what children they take, how columns resolve to
// ordinals — live in internal/plan's compile registry, so there is
// exactly one place a spec can be rejected for meaning rather than
// shape.
package spec

import (
	"fmt"
)

// Params a plan tree may reference: the query thresholds of the
// predicates a < ta and b < tb. A query with no b predicate (the 1-D
// sweeps) has param "tb" absent.
const (
	ParamTA = "ta"
	ParamTB = "tb"
)

// Column types a CatalogSpec may declare, matching record's type
// vocabulary.
var columnTypes = map[string]bool{
	"int64": true, "float64": true, "date": true, "string": true,
}

// WorkloadSpec bundles one complete sweepable scenario: the catalog the
// data is generated from, named plans grouped into systems, and the
// sweep axes to draw. It is self-contained — hashing it (Hash) names
// the scenario for cache scoping.
type WorkloadSpec struct {
	// Name identifies the workload in output and artifacts.
	Name string `json:"name"`
	// Catalog is the shared dataset every system is built over.
	Catalog CatalogSpec `json:"catalog"`
	// Systems are the engine configurations to build, each with its own
	// index set, versioning, and plans.
	Systems []SystemSpec `json:"systems"`
	// Sweep declares the default sweep over the workload's plans.
	Sweep SweepSpec `json:"sweep"`
}

// CatalogSpec declares the dataset: one or more generated tables and
// the index definitions systems may build over them. A single table is
// a one-table catalog, which generates the paper's lineitem-like
// relation; two or more tables generate one derived schema per table
// with foreign-key columns correlating them (see multi.go). The
// generator's input is derived from it by datagen.FromSpec.
type CatalogSpec struct {
	Tables []TableSpec `json:"tables"`
	// Indexes defines secondary indexes by name; systems select which of
	// them to build. Multi-column indexes list their columns in key
	// order.
	Indexes []IndexSpec `json:"indexes,omitempty"`
}

// Table returns the catalog's first table — its only table in the
// single-table case, and the axis table (whose cardinality scales the
// sweep's selectivity thresholds) in the multi-table case.
func (c *CatalogSpec) Table() *TableSpec {
	if len(c.Tables) == 0 {
		return nil
	}
	return &c.Tables[0]
}

// Index returns the named index definition, or nil.
func (c *CatalogSpec) Index(name string) *IndexSpec {
	for i := range c.Indexes {
		if c.Indexes[i].Name == name {
			return &c.Indexes[i]
		}
	}
	return nil
}

// TableSpec declares one generated table: cardinality, generation seed,
// row padding, and the value distributions of the predicate columns.
type TableSpec struct {
	Name string `json:"name"`
	// Rows is the default cardinality; 0 defers to the sweeping
	// service's engine default. A service.Request may override it.
	Rows int64 `json:"rows,omitempty"`
	// Seed drives data generation. In a one-table catalog 0 defers to
	// the engine default; the tables of a multi-table catalog use their
	// declared seed as given, 0 included.
	Seed int64 `json:"seed,omitempty"`
	// PayloadBytes pads rows; 0 defers to the generator default.
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// Columns optionally declares the schema. The generator produces one
	// fixed schema, so when present the declaration must match it — the
	// plan compiler validates that and rejects mismatches.
	Columns []ColumnSpec `json:"columns,omitempty"`
	// ZipfA and ZipfB skew the predicate columns' value distributions
	// (Zipf parameter, must be > 1); 0 keeps the exact-selectivity
	// permutations of the paper's study.
	ZipfA float64 `json:"zipf_a,omitempty"`
	ZipfB float64 `json:"zipf_b,omitempty"`
	// ForeignKeys declares FK columns referencing other tables of a
	// multi-table catalog; single-table catalogs must not declare any.
	ForeignKeys []ForeignKeySpec `json:"foreign_keys,omitempty"`
}

// ColumnSpec declares one column: name and type ("int64", "float64",
// "date", or "string").
type ColumnSpec struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// IndexSpec defines one secondary B-tree index: its columns, in key
// order. Whether the index is covering is a property of the system that
// builds it (versioned systems are never covering), not of the
// definition.
type IndexSpec struct {
	Name string `json:"name"`
	// Table names the indexed table; empty means the catalog's only
	// table.
	Table   string   `json:"table,omitempty"`
	Columns []string `json:"columns"`
}

// SystemSpec declares one engine configuration to build: which of the
// catalog's indexes it has, whether base rows carry MVCC version
// headers (making no index covering — the paper's System B), and the
// plans it runs.
type SystemSpec struct {
	Name string `json:"name"`
	// Versioned adds MVCC headers to base rows; versioned systems must
	// fetch base rows for visibility, so none of their indexes cover.
	Versioned bool `json:"versioned,omitempty"`
	// Indexes names the catalog index definitions this system builds.
	Indexes []string `json:"indexes,omitempty"`
	// Plans are the system's fixed physical plans.
	Plans []PlanSpec `json:"plans"`
}

// PlanSpec is one fixed physical plan as an operator tree.
type PlanSpec struct {
	// ID is the stable identifier used in maps and output, e.g. "A2".
	ID string `json:"id"`
	// Description is the human-readable plan shape.
	Description string `json:"description,omitempty"`
	// RequiresTB marks plans that only make sense for two-predicate
	// queries (e.g. a plan driven by an index on b); building one at a
	// query point with no b threshold panics, exactly like the paper
	// plans A3, B2, and B4.
	RequiresTB bool `json:"requires_tb,omitempty"`
	// Root is the plan tree; it must produce rows (RID-producing ops are
	// inner nodes under fetches or RID joins).
	Root *PlanNode `json:"root"`
}

// SweepSpec declares the workload's default sweep: which plans, the
// standard selectivity axis 2^-MaxExp .. 2^0, and the grid shape. A
// service.Request carrying the workload may override each field.
type SweepSpec struct {
	// Plans lists the plan ids to sweep; empty means every plan, in
	// declaration order.
	Plans []string `json:"plans,omitempty"`
	// MaxExp sets the axis: selectivity fractions 2^-MaxExp .. 2^0.
	MaxExp int `json:"max_exp,omitempty"`
	// Grid2D sweeps the two-predicate (ta, tb) grid instead of the 1-D
	// axis.
	Grid2D bool `json:"grid_2d,omitempty"`
}

// PlanNode is one operator of a plan tree. Op selects the operator; the
// other fields parameterize it (which fields apply depends on the op —
// the plan compiler's registry validates them). The operator vocabulary
// mirrors internal/exec:
//
//	rows: table_scan, fetch, mdam_scan, covering_index_scan,
//	      rids_as_rows, filter, project, limit, nlj, index_nlj,
//	      merge_join, hash_join, sort, stream_agg, spill_agg, hash_agg
//	rids: index_scan, key_filter_scan, rid_merge, rid_hash
type PlanNode struct {
	Op string `json:"op"`

	// Table and Index name catalog objects (scans, fetches, index NLJ).
	Table string `json:"table,omitempty"`
	Index string `json:"index,omitempty"`

	// Lo and Hi bound an index range scan on the key prefix (the
	// leading column).
	Lo *ValueSpec `json:"lo,omitempty"`
	Hi *ValueSpec `json:"hi,omitempty"`

	// Preds are column predicates: residuals on scans and fetches,
	// entry predicates on key-filter and covering scans (there, columns
	// resolve within the index's key columns), the filter op's
	// predicates.
	Preds []PredSpec `json:"preds,omitempty"`

	// Kind selects the fetch strategy: "traditional", "improved", or
	// "bitmap".
	Kind string `json:"kind,omitempty"`
	// MaxBatch bounds the improved fetch's sort batch; 0 means the
	// memory budget decides.
	MaxBatch int `json:"max_batch,omitempty"`

	// Lead and Second are the MDAM interval sets of mdam_scan.
	Lead   *MDAMSetSpec `json:"lead,omitempty"`
	Second *MDAMSetSpec `json:"second,omitempty"`

	// Children. Which are required depends on Op: Input (unary row or
	// RID ops), Left/Right (merge joins), Build/Probe (hash joins),
	// Outer/Inner (nested-loop joins).
	Input *PlanNode `json:"input,omitempty"`
	Left  *PlanNode `json:"left,omitempty"`
	Right *PlanNode `json:"right,omitempty"`
	Build *PlanNode `json:"build,omitempty"`
	Probe *PlanNode `json:"probe,omitempty"`
	Outer *PlanNode `json:"outer,omitempty"`
	Inner *PlanNode `json:"inner,omitempty"`

	// Join keys, by column name in the respective input's row shape.
	LeftKeys  []string `json:"left_keys,omitempty"`
	RightKeys []string `json:"right_keys,omitempty"`
	BuildKeys []string `json:"build_keys,omitempty"`
	ProbeKeys []string `json:"probe_keys,omitempty"`
	OuterKeys []string `json:"outer_keys,omitempty"`
	InnerKeys []string `json:"inner_keys,omitempty"`
	// OuterKey is index_nlj's single outer join column.
	OuterKey string `json:"outer_key,omitempty"`

	// Keys are sort columns; Policy is the spill policy ("graceful" or
	// "degenerate", default graceful).
	Keys   []string `json:"keys,omitempty"`
	Policy string   `json:"policy,omitempty"`

	// GroupBy and Aggs parameterize the aggregation ops.
	GroupBy []string  `json:"group_by,omitempty"`
	Aggs    []AggSpec `json:"aggs,omitempty"`

	// Columns are project's output columns.
	Columns []string `json:"columns,omitempty"`

	// N is limit's row bound.
	N int64 `json:"n,omitempty"`
}

// Children returns the node's non-nil children, in a fixed order.
func (n *PlanNode) Children() []*PlanNode {
	var out []*PlanNode
	for _, c := range []*PlanNode{n.Input, n.Left, n.Right, n.Build, n.Probe, n.Outer, n.Inner} {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// AggSpec declares one aggregate: Fn is "count", "sum", "min", or
// "max"; Column is the aggregated input column (unused for count).
type AggSpec struct {
	Fn     string `json:"fn"`
	Column string `json:"column,omitempty"`
}

// PredSpec is one half-open interval predicate lo <= column < hi. A nil
// bound is unbounded on that side.
type PredSpec struct {
	Column string     `json:"column"`
	Lo     *ValueSpec `json:"lo,omitempty"`
	Hi     *ValueSpec `json:"hi,omitempty"`
	// IfParam drops the predicate entirely when the named query param
	// is absent — the spec form of "the b residual applies only to
	// two-predicate queries".
	IfParam string `json:"if_param,omitempty"`
}

// ValueSpec is a scalar in a plan tree: either a reference to a query
// parameter ("ta" or "tb") or an integer constant. Exactly one of the
// two must be set.
type ValueSpec struct {
	Param string `json:"param,omitempty"`
	Const *int64 `json:"const,omitempty"`
}

// MDAMSetSpec declares one MDAM interval set: "all" (unrestricted) or
// "lt" (values below Value).
type MDAMSetSpec struct {
	Op    string     `json:"op"`
	Value *ValueSpec `json:"value,omitempty"`
	// AbsentAll degrades an "lt" set whose Value references an absent
	// query param to "all" — how a covering-index plan answers a
	// single-predicate query with its other column unrestricted.
	AbsentAll bool `json:"absent_all,omitempty"`
}

// Validate checks the workload's structural rules: required names,
// resolvable references, well-formed values. It knows nothing about
// operator semantics — unknown ops, schema mismatches, and ordinal
// errors are the plan compiler's concern (and are also checked at
// service admission).
func (w *WorkloadSpec) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("spec: workload name must not be empty")
	}
	if err := w.Catalog.validate(); err != nil {
		return err
	}
	if len(w.Systems) == 0 {
		return fmt.Errorf("spec: workload %q declares no systems", w.Name)
	}
	planIDs := map[string]bool{}
	sysNames := map[string]bool{}
	for si := range w.Systems {
		sys := &w.Systems[si]
		if sys.Name == "" {
			return fmt.Errorf("spec: system %d has no name", si)
		}
		if sysNames[sys.Name] {
			return fmt.Errorf("spec: duplicate system %q", sys.Name)
		}
		sysNames[sys.Name] = true
		sysIx := map[string]bool{}
		for _, ix := range sys.Indexes {
			if w.Catalog.Index(ix) == nil {
				return fmt.Errorf("spec: system %q references undefined index %q", sys.Name, ix)
			}
			if sysIx[ix] {
				return fmt.Errorf("spec: system %q lists index %q twice", sys.Name, ix)
			}
			sysIx[ix] = true
		}
		if len(sys.Plans) == 0 {
			return fmt.Errorf("spec: system %q declares no plans", sys.Name)
		}
		for pi := range sys.Plans {
			p := &sys.Plans[pi]
			if p.ID == "" {
				return fmt.Errorf("spec: system %q plan %d has no id", sys.Name, pi)
			}
			if planIDs[p.ID] {
				return fmt.Errorf("spec: duplicate plan id %q", p.ID)
			}
			planIDs[p.ID] = true
			if p.Root == nil {
				return fmt.Errorf("spec: plan %q has no root node", p.ID)
			}
			if err := validateNodes(p.ID, p.Root); err != nil {
				return err
			}
		}
	}
	for _, id := range w.Sweep.Plans {
		if !planIDs[id] {
			return fmt.Errorf("spec: sweep references undeclared plan %q", id)
		}
	}
	if w.Sweep.MaxExp < 0 || w.Sweep.MaxExp > 40 {
		return fmt.Errorf("spec: sweep max_exp must be between 0 and 40, got %d", w.Sweep.MaxExp)
	}
	return nil
}

// validate checks the catalog's structural rules.
func (c *CatalogSpec) validate() error {
	if len(c.Tables) == 0 {
		return fmt.Errorf("spec: catalog must declare at least one table, got %d", len(c.Tables))
	}
	if c.Multi() {
		return c.validateMulti()
	}
	t := &c.Tables[0]
	if t.Name == "" {
		return fmt.Errorf("spec: table name must not be empty")
	}
	if len(t.ForeignKeys) > 0 {
		return fmt.Errorf("spec: table %q declares foreign keys in a single-table catalog", t.Name)
	}
	if err := t.validateScalar(); err != nil {
		return err
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
		if ix.Table != "" && ix.Table != t.Name {
			return fmt.Errorf("spec: index %q references unknown table %q", ix.Name, ix.Table)
		}
		if len(ix.Columns) == 0 {
			return fmt.Errorf("spec: index %q declares no columns", ix.Name)
		}
	}
	return nil
}

// validateNodes walks a plan tree checking op-agnostic shape rules.
func validateNodes(planID string, n *PlanNode) error {
	if n.Op == "" {
		return fmt.Errorf("spec: plan %q contains a node with no op", planID)
	}
	ctx := fmt.Sprintf("plan %q %s", planID, n.Op)
	for _, v := range []*ValueSpec{n.Lo, n.Hi} {
		if err := v.validate(ctx); err != nil {
			return err
		}
	}
	for _, p := range n.Preds {
		if err := p.validate(ctx); err != nil {
			return err
		}
	}
	for _, s := range []*MDAMSetSpec{n.Lead, n.Second} {
		if s == nil {
			continue
		}
		if err := s.validate(ctx); err != nil {
			return err
		}
	}
	for _, c := range n.Children() {
		if err := validateNodes(planID, c); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one predicate; ctx prefixes errors with where it sits
// ("plan \"A2\" fetch", "query \"q\"").
func (p *PredSpec) validate(ctx string) error {
	if p.Column == "" {
		return fmt.Errorf("spec: %s: predicate has no column", ctx)
	}
	if p.Lo == nil && p.Hi == nil {
		return fmt.Errorf("spec: %s: predicate on %q has no bounds", ctx, p.Column)
	}
	for _, v := range []*ValueSpec{p.Lo, p.Hi} {
		if err := v.validate(ctx); err != nil {
			return err
		}
	}
	if p.IfParam != "" && !validParam(p.IfParam) {
		return fmt.Errorf("spec: %s: if_param %q is not a query param (want %q or %q)",
			ctx, p.IfParam, ParamTA, ParamTB)
	}
	return nil
}

func (v *ValueSpec) validate(ctx string) error {
	if v == nil {
		return nil
	}
	switch {
	case v.Param != "" && v.Const != nil:
		return fmt.Errorf("spec: %s: value sets both param and const", ctx)
	case v.Param == "" && v.Const == nil:
		return fmt.Errorf("spec: %s: value sets neither param nor const", ctx)
	case v.Param != "" && !validParam(v.Param):
		return fmt.Errorf("spec: %s: unknown param %q (want %q or %q)",
			ctx, v.Param, ParamTA, ParamTB)
	}
	return nil
}

func (s *MDAMSetSpec) validate(ctx string) error {
	switch s.Op {
	case "all":
		if s.Value != nil {
			return fmt.Errorf("spec: %s: mdam set \"all\" takes no value", ctx)
		}
	case "lt":
		if s.Value == nil {
			return fmt.Errorf("spec: %s: mdam set \"lt\" needs a value", ctx)
		}
		if err := s.Value.validate(ctx); err != nil {
			return err
		}
	default:
		return fmt.Errorf("spec: %s: unknown mdam set op %q (want \"all\" or \"lt\")", ctx, s.Op)
	}
	return nil
}

func validParam(p string) bool { return p == ParamTA || p == ParamTB }

// NeedsTB reports whether the plan only makes sense for two-predicate
// queries: it is flagged RequiresTB, or its tree references the tb
// query parameter outside any guard (a predicate's if_param drop, an
// MDAM set's absent_all degradation). At a 1-D sweep point tb is -1,
// so an unguarded reference would quietly measure an empty range —
// services reject the mismatch at admission instead.
func (p *PlanSpec) NeedsTB() bool {
	return p.RequiresTB || nodeNeedsTB(p.Root)
}

func nodeNeedsTB(n *PlanNode) bool {
	if n == nil {
		return false
	}
	isTB := func(v *ValueSpec) bool { return v != nil && v.Param == ParamTB }
	if isTB(n.Lo) || isTB(n.Hi) {
		return true
	}
	for _, pr := range n.Preds {
		if pr.IfParam == ParamTB {
			continue // dropped entirely when tb is absent
		}
		if isTB(pr.Lo) || isTB(pr.Hi) {
			return true
		}
	}
	for _, s := range []*MDAMSetSpec{n.Lead, n.Second} {
		if s != nil && !s.AbsentAll && isTB(s.Value) {
			return true
		}
	}
	for _, c := range n.Children() {
		if nodeNeedsTB(c) {
			return true
		}
	}
	return false
}

// Plan returns the named plan spec and its system, or nils.
func (w *WorkloadSpec) Plan(id string) (*PlanSpec, *SystemSpec) {
	for si := range w.Systems {
		sys := &w.Systems[si]
		for pi := range sys.Plans {
			if sys.Plans[pi].ID == id {
				return &sys.Plans[pi], sys
			}
		}
	}
	return nil, nil
}

// PlanIDs returns every plan id, in declaration order (system by
// system).
func (w *WorkloadSpec) PlanIDs() []string {
	var out []string
	for si := range w.Systems {
		for pi := range w.Systems[si].Plans {
			out = append(out, w.Systems[si].Plans[pi].ID)
		}
	}
	return out
}

// SweepPlans returns the sweep's effective plan list: Sweep.Plans when
// set, every declared plan otherwise.
func (w *WorkloadSpec) SweepPlans() []string {
	if len(w.Sweep.Plans) > 0 {
		return append([]string(nil), w.Sweep.Plans...)
	}
	return w.PlanIDs()
}
