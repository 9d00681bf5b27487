package plan

// The workload-spec compiler: an operator registry that turns the
// declarative plan trees of internal/spec into the same Plan build
// funcs the hand-written paper constructors produce. Compilation does
// all the expensive and fallible work once per workload — resolving
// column names to ordinals, index references to definitions, value
// specs to threshold accessors — so the Build closures it emits do no
// lookups, no validation, and no allocation beyond what the legacy
// constructors did: spec-compiled plans measure byte-identical to
// hand-built ones, and compilation stays entirely off the sweep's
// per-cell hot path.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"robustmap/internal/catalog"
	"robustmap/internal/datagen"
	"robustmap/internal/exec"
	"robustmap/internal/mdam"
	"robustmap/internal/record"
	"robustmap/internal/spec"
)

// rowBuild and ridBuild are the two constructor shapes a compiled node
// can have, mirroring exec's RowIter/RIDIter split.
type rowBuild = BuildFunc
type ridBuild func(*exec.Ctx, *catalog.Catalog, Query) exec.RIDIter

// opKind says what a compiled node produces.
type opKind int

const (
	opRows opKind = iota
	opRIDs
)

func (k opKind) String() string {
	if k == opRIDs {
		return "RIDs"
	}
	return "rows"
}

// compiled is one compiled plan node: its kind, the matching builder,
// and (for row nodes) the emitted column shape downstream ops resolve
// names against. RID nodes carry the table their RIDs address, so a
// fetch against the wrong table of a multi-table catalog is a compile
// error, not a garbled row decode.
type compiled struct {
	kind  opKind
	row   rowBuild
	rid   ridBuild
	shape []record.Column
	table string // RID nodes: the addressed table
}

// opCompiler is one registry entry. fields lists the spec fields the
// op consumes (beyond "op" itself); a node populating anything else is
// rejected, so a predicate attached to an op that would silently
// ignore it cannot silently change a sweep.
type opCompiler struct {
	kind    opKind
	fields  []string
	compile func(cc *compileCtx, n *spec.PlanNode) (*compiled, error)
}

// opRegistry maps spec op names onto compilers — the one place the
// operator vocabulary of workload specs is defined. Populated in init
// (the compile funcs recurse through the registry, so a literal would
// be an initialization cycle).
var opRegistry map[string]*opCompiler

func init() {
	agg := []string{"input", "group_by", "aggs"}
	opRegistry = map[string]*opCompiler{
		// Row-producing operators.
		"table_scan":          {opRows, []string{"table", "preds"}, compileTableScan},
		"fetch":               {opRows, []string{"kind", "table", "preds", "max_batch", "input"}, compileFetch},
		"mdam_scan":           {opRows, []string{"index", "lead", "second"}, compileMDAMScan},
		"covering_index_scan": {opRows, []string{"index", "lo", "hi", "preds"}, compileCoveringScan},
		"rids_as_rows":        {opRows, []string{"input"}, compileRIDsAsRows},
		"filter":              {opRows, []string{"input", "preds"}, compileFilter},
		"project":             {opRows, []string{"input", "columns"}, compileProject},
		"limit":               {opRows, []string{"input", "n"}, compileLimit},
		"nlj":                 {opRows, []string{"outer", "inner", "outer_keys", "inner_keys"}, compileNLJ},
		"index_nlj":           {opRows, []string{"outer", "index", "outer_key"}, compileIndexNLJ},
		"merge_join":          {opRows, []string{"left", "right", "left_keys", "right_keys"}, compileMergeJoin},
		"hash_join":           {opRows, []string{"build", "probe", "build_keys", "probe_keys"}, compileHashJoin},
		"sort":                {opRows, []string{"input", "keys", "policy"}, compileSort},
		"stream_agg":          {opRows, agg, compileAgg},
		"spill_agg":           {opRows, agg, compileAgg},
		"hash_agg":            {opRows, agg, compileAgg},
		// RID-producing operators.
		"index_scan":      {opRIDs, []string{"index", "lo", "hi"}, compileIndexScan},
		"key_filter_scan": {opRIDs, []string{"index", "lo", "hi", "preds"}, compileKeyFilterScan},
		"rid_merge":       {opRIDs, []string{"left", "right"}, compileRIDMerge},
		"rid_hash":        {opRIDs, []string{"build", "probe"}, compileRIDHash},
	}
}

// setFields lists the spec fields a node populates, by JSON name.
func setFields(n *spec.PlanNode) []string {
	var out []string
	add := func(name string, set bool) {
		if set {
			out = append(out, name)
		}
	}
	add("table", n.Table != "")
	add("index", n.Index != "")
	add("lo", n.Lo != nil)
	add("hi", n.Hi != nil)
	add("preds", len(n.Preds) > 0)
	add("kind", n.Kind != "")
	add("max_batch", n.MaxBatch != 0)
	add("lead", n.Lead != nil)
	add("second", n.Second != nil)
	add("input", n.Input != nil)
	add("left", n.Left != nil)
	add("right", n.Right != nil)
	add("build", n.Build != nil)
	add("probe", n.Probe != nil)
	add("outer", n.Outer != nil)
	add("inner", n.Inner != nil)
	add("left_keys", len(n.LeftKeys) > 0)
	add("right_keys", len(n.RightKeys) > 0)
	add("build_keys", len(n.BuildKeys) > 0)
	add("probe_keys", len(n.ProbeKeys) > 0)
	add("outer_keys", len(n.OuterKeys) > 0)
	add("inner_keys", len(n.InnerKeys) > 0)
	add("outer_key", n.OuterKey != "")
	add("keys", len(n.Keys) > 0)
	add("policy", n.Policy != "")
	add("group_by", len(n.GroupBy) > 0)
	add("aggs", len(n.Aggs) > 0)
	add("columns", len(n.Columns) > 0)
	add("n", n.N != 0)
	return out
}

// KnownOps lists the spec operator vocabulary, sorted.
func KnownOps() []string {
	out := make([]string, 0, len(opRegistry))
	for op := range opRegistry {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// catalogModel is the compile-time view of a CatalogSpec: each table's
// generated schema and the index definitions, resolved once per
// workload.
type catalogModel struct {
	first   string // the catalog's first (axis) table
	tables  map[string]*record.Schema
	indexes map[string]*spec.IndexSpec
}

// schemaOf returns a declared table's generated schema, or nil.
func (m *catalogModel) schemaOf(name string) *record.Schema { return m.tables[name] }

// indexTable resolves an index definition's owning table ("" means the
// first table).
func (m *catalogModel) indexTable(def *spec.IndexSpec) string {
	if def.Table != "" {
		return def.Table
	}
	return m.first
}

// tableList renders the declared table names for error messages.
func (m *catalogModel) tableList() string {
	names := make([]string, 0, len(m.tables))
	for name := range m.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// typeName renders a record type in the spec's type vocabulary.
func typeName(t record.Type) string {
	switch t {
	case record.TypeInt64:
		return "int64"
	case record.TypeFloat64:
		return "float64"
	case record.TypeDate:
		return "date"
	case record.TypeString:
		return "string"
	default:
		return t.String()
	}
}

// modelFor resolves a CatalogSpec against the data generator's
// schemas (see datagen.Catalog.Schema).
func modelFor(c *spec.CatalogSpec) (*catalogModel, error) {
	t := c.Table()
	if t == nil {
		return nil, fmt.Errorf("plan: catalog declares no table")
	}
	m := &catalogModel{first: t.Name,
		tables:  make(map[string]*record.Schema),
		indexes: make(map[string]*spec.IndexSpec)}
	gen := datagen.FromSpec(c, 0, 0)
	for i := range c.Tables {
		schema := gen.Schema(i)
		if err := declaredMatches(&c.Tables[i], schema); err != nil {
			return nil, err
		}
		m.tables[c.Tables[i].Name] = schema
	}
	for i := range c.Indexes {
		ix := &c.Indexes[i]
		schema := m.schemaOf(m.indexTable(ix))
		if schema == nil {
			return nil, fmt.Errorf("plan: index %q references unknown table %q", ix.Name, ix.Table)
		}
		for _, col := range ix.Columns {
			if schema.Ordinal(col) < 0 {
				return nil, fmt.Errorf("plan: index %q references unknown column %q (table %q has %s)",
					ix.Name, col, m.indexTable(ix), columnList(schema))
			}
		}
		m.indexes[ix.Name] = ix
	}
	return m, nil
}

// declaredMatches checks an optional declared schema against the
// generated one: the generator's relation is fixed per table, so a
// declaration documents it and must match exactly.
func declaredMatches(t *spec.TableSpec, schema *record.Schema) error {
	if len(t.Columns) == 0 {
		return nil
	}
	if len(t.Columns) != schema.NumColumns() {
		return fmt.Errorf("plan: table %q declares %d columns; the generator produces %d (%s)",
			t.Name, len(t.Columns), schema.NumColumns(), schema)
	}
	for i, col := range t.Columns {
		want := schema.Column(i)
		if col.Name != want.Name || col.Type != typeName(want.Type) {
			return fmt.Errorf("plan: table %q column %d is %s %s; the generator produces %s %s",
				t.Name, i, col.Name, col.Type, want.Name, typeName(want.Type))
		}
	}
	return nil
}

func columnList(s *record.Schema) string {
	names := make([]string, s.NumColumns())
	for i := range names {
		names[i] = s.Column(i).Name
	}
	return strings.Join(names, ", ")
}

// compileCtx carries one plan's compilation state.
type compileCtx struct {
	model  *catalogModel
	sys    *spec.SystemSpec
	planID string
}

// errf builds the stable "plan: plan ID: op: ..." error shape.
func (cc *compileCtx) errf(n *spec.PlanNode, format string, args ...any) error {
	return fmt.Errorf("plan: plan %q: %s: %s", cc.planID, n.Op, fmt.Sprintf(format, args...))
}

// sysHasIndex reports whether the compiling system builds the index.
func (cc *compileCtx) sysHasIndex(name string) bool {
	for _, ix := range cc.sys.Indexes {
		if ix == name {
			return true
		}
	}
	return false
}

// index resolves a node's index reference: defined in the catalog and
// built by this system.
func (cc *compileCtx) index(n *spec.PlanNode) (*spec.IndexSpec, error) {
	if n.Index == "" {
		return nil, cc.errf(n, "missing index")
	}
	def, ok := cc.model.indexes[n.Index]
	if !ok {
		return nil, cc.errf(n, "unknown index %q", n.Index)
	}
	if !cc.sysHasIndex(n.Index) {
		return nil, cc.errf(n, "index %q is not built by system %q", n.Index, cc.sys.Name)
	}
	return def, nil
}

// table resolves a node's table reference against the declared tables.
func (cc *compileCtx) table(n *spec.PlanNode) (string, error) {
	if n.Table == "" {
		return "", cc.errf(n, "missing table")
	}
	if cc.model.schemaOf(n.Table) == nil {
		if len(cc.model.tables) == 1 {
			return "", cc.errf(n, "unknown table %q (catalog table is %q)", n.Table, cc.model.first)
		}
		return "", cc.errf(n, "unknown table %q (catalog tables: %s)", n.Table, cc.model.tableList())
	}
	return n.Table, nil
}

// child compiles a named child node, requiring it to exist and produce
// the wanted kind.
func (cc *compileCtx) child(n *spec.PlanNode, c *spec.PlanNode, name string, want opKind) (*compiled, error) {
	if c == nil {
		return nil, cc.errf(n, "missing %s input", name)
	}
	comp, err := cc.compileNode(c)
	if err != nil {
		return nil, err
	}
	if comp.kind != want {
		return nil, cc.errf(n, "%s input %s produces %s, want %s", name, c.Op, comp.kind, want)
	}
	return comp, nil
}

// compileNode dispatches one node through the registry, first
// rejecting populated fields the op does not consume — a predicate or
// bound on the wrong op must fail loudly, not silently vanish from the
// measured plan.
func (cc *compileCtx) compileNode(n *spec.PlanNode) (*compiled, error) {
	oc, ok := opRegistry[n.Op]
	if !ok {
		return nil, fmt.Errorf("plan: plan %q: unknown op %q (known: %s)",
			cc.planID, n.Op, strings.Join(KnownOps(), ", "))
	}
	for _, f := range setFields(n) {
		if !slices.Contains(oc.fields, f) {
			return nil, cc.errf(n, "field %q is not used by this op (%s takes: %s)",
				f, n.Op, strings.Join(oc.fields, ", "))
		}
	}
	return oc.compile(cc, n)
}

// valueFn resolves a spec value at a query point.
type valueFn func(q Query) int64

// value compiles a ValueSpec.
func (cc *compileCtx) value(n *spec.PlanNode, v *spec.ValueSpec) (valueFn, error) {
	switch {
	case v == nil:
		return nil, cc.errf(n, "missing value")
	case v.Param == spec.ParamTA:
		return func(q Query) int64 { return q.TA }, nil
	case v.Param == spec.ParamTB:
		return func(q Query) int64 { return q.TB }, nil
	case v.Const != nil && v.Param == "":
		c := *v.Const
		return func(Query) int64 { return c }, nil
	default:
		return nil, cc.errf(n, "invalid value (want exactly one of param %q/%q or const)",
			spec.ParamTA, spec.ParamTB)
	}
}

// predsFn materializes a node's predicates at a query point.
type predsFn func(q Query) []exec.ColPred

// predTemplate is one compiled predicate.
type predTemplate struct {
	col    int
	lo, hi valueFn // nil = unbounded
	ifTB   bool    // drop when the query has no b predicate
}

// shapeOrdinal resolves a column name within a row shape.
func shapeOrdinal(shape []record.Column, name string) int {
	for i, c := range shape {
		if c.Name == name {
			return i
		}
	}
	return -1
}

func shapeList(shape []record.Column) string {
	names := make([]string, len(shape))
	for i, c := range shape {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}

// preds compiles predicate specs against a row shape.
func (cc *compileCtx) preds(n *spec.PlanNode, specs []spec.PredSpec, shape []record.Column) (predsFn, error) {
	if len(specs) == 0 {
		return func(Query) []exec.ColPred { return nil }, nil
	}
	tmpl := make([]predTemplate, 0, len(specs))
	for _, ps := range specs {
		ord := shapeOrdinal(shape, ps.Column)
		if ord < 0 {
			return nil, cc.errf(n, "predicate column %q is not in the input row (columns: %s)",
				ps.Column, shapeList(shape))
		}
		if t := shape[ord].Type; t != record.TypeInt64 {
			return nil, cc.errf(n, "predicate column %q has type %s; predicates take int64 columns",
				ps.Column, typeName(t))
		}
		t := predTemplate{col: ord, ifTB: ps.IfParam == spec.ParamTB}
		var err error
		if ps.Lo != nil {
			if t.lo, err = cc.value(n, ps.Lo); err != nil {
				return nil, err
			}
		}
		if ps.Hi != nil {
			if t.hi, err = cc.value(n, ps.Hi); err != nil {
				return nil, err
			}
		}
		if t.lo == nil && t.hi == nil {
			return nil, cc.errf(n, "predicate on %q has no bounds", ps.Column)
		}
		tmpl = append(tmpl, t)
	}
	return func(q Query) []exec.ColPred {
		out := make([]exec.ColPred, 0, len(tmpl))
		for _, t := range tmpl {
			if t.ifTB && q.OnlyA() {
				continue
			}
			p := exec.ColPred{Col: t.col}
			if t.lo != nil {
				p.Lo = record.Int(t.lo(q))
			}
			if t.hi != nil {
				p.Hi = record.Int(t.hi(q))
			}
			out = append(out, p)
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}, nil
}

// boundFn builds one index range bound (a key prefix) at a query point.
type boundFn func(ix *catalog.Index, q Query) []byte

// bound compiles an optional range bound.
func (cc *compileCtx) bound(n *spec.PlanNode, v *spec.ValueSpec) (boundFn, error) {
	if v == nil {
		return nil, nil
	}
	vf, err := cc.value(n, v)
	if err != nil {
		return nil, err
	}
	return func(ix *catalog.Index, q Query) []byte {
		return ix.PrefixFor(record.Int(vf(q)))
	}, nil
}

// indexShape maps an index's key columns onto their record columns.
func (cc *compileCtx) indexShape(def *spec.IndexSpec) []record.Column {
	schema := cc.model.schemaOf(cc.model.indexTable(def))
	shape := make([]record.Column, len(def.Columns))
	for i, col := range def.Columns {
		shape[i] = schema.Column(schema.MustOrdinal(col))
	}
	return shape
}

// tableShape is one table's full row shape.
func (cc *compileCtx) tableShape(table string) []record.Column {
	return cc.model.schemaOf(table).Columns()
}

// --- Scans ----------------------------------------------------------------

func compileTableScan(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	name, err := cc.table(n)
	if err != nil {
		return nil, err
	}
	pf, err := cc.preds(n, n.Preds, cc.tableShape(name))
	if err != nil {
		return nil, err
	}
	return &compiled{kind: opRows, shape: cc.tableShape(name),
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewTableScan(ctx, c.Table(name), pf(q))
		}}, nil
}

func compileIndexScan(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	def, err := cc.index(n)
	if err != nil {
		return nil, err
	}
	lo, err := cc.bound(n, n.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := cc.bound(n, n.Hi)
	if err != nil {
		return nil, err
	}
	name := def.Name
	return &compiled{kind: opRIDs, table: cc.model.indexTable(def),
		rid: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RIDIter {
			ix := c.Index(name)
			var lob, hib []byte
			if lo != nil {
				lob = lo(ix, q)
			}
			if hi != nil {
				hib = hi(ix, q)
			}
			return exec.NewIndexRangeScan(ctx, ix, lob, hib)
		}}, nil
}

func compileKeyFilterScan(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	def, err := cc.index(n)
	if err != nil {
		return nil, err
	}
	lo, err := cc.bound(n, n.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := cc.bound(n, n.Hi)
	if err != nil {
		return nil, err
	}
	// Entry predicates resolve within the index's key columns.
	pf, err := cc.preds(n, n.Preds, cc.indexShape(def))
	if err != nil {
		return nil, err
	}
	name := def.Name
	return &compiled{kind: opRIDs, table: cc.model.indexTable(def),
		rid: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RIDIter {
			ix := c.Index(name)
			var lob, hib []byte
			if lo != nil {
				lob = lo(ix, q)
			}
			if hi != nil {
				hib = hi(ix, q)
			}
			return exec.NewIndexKeyFilterScan(ctx, ix, lob, hib, pf(q))
		}}, nil
}

// coveringIndex resolves an index that must be covering in this system.
func (cc *compileCtx) coveringIndex(n *spec.PlanNode) (*spec.IndexSpec, error) {
	def, err := cc.index(n)
	if err != nil {
		return nil, err
	}
	if cc.sys.Versioned {
		return nil, cc.errf(n, "index %q is not covering in versioned system %q (visibility lives in the base row)",
			def.Name, cc.sys.Name)
	}
	return def, nil
}

func compileMDAMScan(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	def, err := cc.coveringIndex(n)
	if err != nil {
		return nil, err
	}
	if len(def.Columns) != 2 {
		return nil, cc.errf(n, "index %q has %d columns; mdam_scan needs a two-column index",
			def.Name, len(def.Columns))
	}
	lead, err := cc.mdamSet(n, n.Lead, "lead")
	if err != nil {
		return nil, err
	}
	second, err := cc.mdamSet(n, n.Second, "second")
	if err != nil {
		return nil, err
	}
	name := def.Name
	return &compiled{kind: opRows, shape: cc.indexShape(def),
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewMDAMScan(ctx, c.Index(name), lead(q), second(q))
		}}, nil
}

// mdamSet compiles one MDAM interval set.
func (cc *compileCtx) mdamSet(n *spec.PlanNode, s *spec.MDAMSetSpec, which string) (func(q Query) mdam.Set, error) {
	if s == nil {
		return nil, cc.errf(n, "missing %s interval set", which)
	}
	// absent_all only means something for a value that can be absent:
	// the tb threshold of a single-predicate query. Anywhere else the
	// flag would be silently inert, so it is rejected like any other
	// meaningless spec field.
	if s.AbsentAll && (s.Op != "lt" || s.Value == nil || s.Value.Param != spec.ParamTB) {
		return nil, cc.errf(n, "absent_all only applies to an \"lt\" set whose value is param %q", spec.ParamTB)
	}
	switch s.Op {
	case "all":
		return func(Query) mdam.Set { return mdam.All() }, nil
	case "lt":
		vf, err := cc.value(n, s.Value)
		if err != nil {
			return nil, err
		}
		absentAll := s.AbsentAll
		return func(q Query) mdam.Set {
			if absentAll && q.OnlyA() {
				return mdam.All()
			}
			return mdam.LessThan(record.Int(vf(q)))
		}, nil
	default:
		return nil, cc.errf(n, "unknown mdam set op %q (want \"all\" or \"lt\")", s.Op)
	}
}

func compileCoveringScan(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	def, err := cc.coveringIndex(n)
	if err != nil {
		return nil, err
	}
	lo, err := cc.bound(n, n.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := cc.bound(n, n.Hi)
	if err != nil {
		return nil, err
	}
	shape := cc.indexShape(def)
	pf, err := cc.preds(n, n.Preds, shape)
	if err != nil {
		return nil, err
	}
	name := def.Name
	return &compiled{kind: opRows, shape: shape,
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			ix := c.Index(name)
			var lob, hib []byte
			if lo != nil {
				lob = lo(ix, q)
			}
			if hi != nil {
				hib = hi(ix, q)
			}
			return exec.NewCoveringIndexScan(ctx, ix, lob, hib, pf(q))
		}}, nil
}

// --- Fetches and RID combinators ------------------------------------------

func compileFetch(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	name, err := cc.table(n)
	if err != nil {
		return nil, err
	}
	in, err := cc.child(n, n.Input, "fetch", opRIDs)
	if err != nil {
		return nil, err
	}
	if in.table != "" && in.table != name {
		return nil, cc.errf(n, "fetches table %q but its input produces RIDs of table %q", name, in.table)
	}
	pf, err := cc.preds(n, n.Preds, cc.tableShape(name))
	if err != nil {
		return nil, err
	}
	rid := in.rid
	var row rowBuild
	switch n.Kind {
	case "traditional":
		row = func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewTraditionalFetch(ctx, c.Table(name), rid(ctx, c, q), pf(q))
		}
	case "improved":
		maxBatch := n.MaxBatch
		row = func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewImprovedFetch(ctx, c.Table(name), rid(ctx, c, q), pf(q), maxBatch)
		}
	case "bitmap":
		row = func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewBitmapFetch(ctx, c.Table(name), rid(ctx, c, q), pf(q))
		}
	default:
		return nil, cc.errf(n, "unknown kind %q (want \"traditional\", \"improved\", or \"bitmap\")", n.Kind)
	}
	return &compiled{kind: opRows, shape: cc.tableShape(name), row: row}, nil
}

func compileRIDMerge(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	l, err := cc.child(n, n.Left, "left", opRIDs)
	if err != nil {
		return nil, err
	}
	r, err := cc.child(n, n.Right, "right", opRIDs)
	if err != nil {
		return nil, err
	}
	if l.table != r.table {
		return nil, cc.errf(n, "intersects RIDs of table %q with RIDs of table %q", l.table, r.table)
	}
	lb, rb := l.rid, r.rid
	return &compiled{kind: opRIDs, table: l.table,
		rid: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RIDIter {
			return exec.NewRIDMergeIntersect(ctx, lb(ctx, c, q), rb(ctx, c, q))
		}}, nil
}

func compileRIDHash(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	b, err := cc.child(n, n.Build, "build", opRIDs)
	if err != nil {
		return nil, err
	}
	p, err := cc.child(n, n.Probe, "probe", opRIDs)
	if err != nil {
		return nil, err
	}
	if b.table != p.table {
		return nil, cc.errf(n, "intersects RIDs of table %q with RIDs of table %q", b.table, p.table)
	}
	bb, pb := b.rid, p.rid
	return &compiled{kind: opRIDs, table: b.table,
		rid: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RIDIter {
			return exec.NewRIDHashIntersect(ctx, bb(ctx, c, q), pb(ctx, c, q))
		}}, nil
}

func compileRIDsAsRows(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	in, err := cc.child(n, n.Input, "rids_as_rows", opRIDs)
	if err != nil {
		return nil, err
	}
	rid := in.rid
	return &compiled{kind: opRows, shape: nil,
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return &ridsAsRows{inner: rid(ctx, c, q)}
		}}, nil
}

// --- Row combinators ------------------------------------------------------

func compileFilter(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	in, err := cc.child(n, n.Input, "filter", opRows)
	if err != nil {
		return nil, err
	}
	pf, err := cc.preds(n, n.Preds, in.shape)
	if err != nil {
		return nil, err
	}
	rb := in.row
	return &compiled{kind: opRows, shape: in.shape,
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewFilter(ctx, rb(ctx, c, q), pf(q))
		}}, nil
}

func compileProject(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	in, err := cc.child(n, n.Input, "project", opRows)
	if err != nil {
		return nil, err
	}
	if len(n.Columns) == 0 {
		return nil, cc.errf(n, "missing columns")
	}
	ords := make([]int, len(n.Columns))
	shape := make([]record.Column, len(n.Columns))
	for i, col := range n.Columns {
		ord := shapeOrdinal(in.shape, col)
		if ord < 0 {
			return nil, cc.errf(n, "column %q is not in the input row (columns: %s)", col, shapeList(in.shape))
		}
		ords[i] = ord
		shape[i] = in.shape[ord]
	}
	rb := in.row
	return &compiled{kind: opRows, shape: shape,
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewProject(ctx, rb(ctx, c, q), ords)
		}}, nil
}

func compileLimit(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	in, err := cc.child(n, n.Input, "limit", opRows)
	if err != nil {
		return nil, err
	}
	if n.N <= 0 {
		// A zero bound would compile to an always-empty plan; fail
		// loudly like any other meaningless spec field.
		return nil, cc.errf(n, "n must be positive, got %d", n.N)
	}
	rb, limit := in.row, n.N
	return &compiled{kind: opRows, shape: in.shape,
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewLimit(rb(ctx, c, q), limit)
		}}, nil
}

// joinKeys resolves a key column list against a shape.
func (cc *compileCtx) joinKeys(n *spec.PlanNode, names []string, shape []record.Column, side string) ([]int, error) {
	ords := make([]int, len(names))
	for i, name := range names {
		ord := shapeOrdinal(shape, name)
		if ord < 0 {
			return nil, cc.errf(n, "%s key %q is not in the %s input row (columns: %s)",
				side, name, side, shapeList(shape))
		}
		ords[i] = ord
	}
	return ords, nil
}

// schemaFor materializes a row shape as a record.Schema for operators
// that need one (sort, hash join, spilling aggregate — they encode rows
// by position and type). Join outputs may repeat column names (a
// self-join carries both sides' columns), which NewSchema rejects, so
// duplicates are suffixed; name resolution elsewhere stays on the
// un-renamed shape, where the first occurrence wins.
func schemaFor(shape []record.Column) *record.Schema {
	seen := map[string]int{}
	cols := make([]record.Column, len(shape))
	for i, c := range shape {
		seen[c.Name]++
		if n := seen[c.Name]; n > 1 {
			c.Name = fmt.Sprintf("%s#%d", c.Name, n)
		}
		cols[i] = c
	}
	return record.NewSchema(cols...)
}

func concatShape(a, b []record.Column) []record.Column {
	out := make([]record.Column, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func compileNLJ(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	outer, err := cc.child(n, n.Outer, "outer", opRows)
	if err != nil {
		return nil, err
	}
	inner, err := cc.child(n, n.Inner, "inner", opRows)
	if err != nil {
		return nil, err
	}
	if len(n.OuterKeys) != len(n.InnerKeys) {
		return nil, cc.errf(n, "key arity mismatch: %d outer_keys vs %d inner_keys",
			len(n.OuterKeys), len(n.InnerKeys))
	}
	ok, err := cc.joinKeys(n, n.OuterKeys, outer.shape, "outer")
	if err != nil {
		return nil, err
	}
	ik, err := cc.joinKeys(n, n.InnerKeys, inner.shape, "inner")
	if err != nil {
		return nil, err
	}
	ob, ib := outer.row, inner.row
	return &compiled{kind: opRows, shape: concatShape(outer.shape, inner.shape),
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewNestedLoopJoin(ctx, ob(ctx, c, q), ib(ctx, c, q), ok, ik)
		}}, nil
}

func compileIndexNLJ(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	outer, err := cc.child(n, n.Outer, "outer", opRows)
	if err != nil {
		return nil, err
	}
	def, err := cc.index(n)
	if err != nil {
		return nil, err
	}
	if len(def.Columns) != 1 {
		return nil, cc.errf(n, "index %q has %d columns; index_nlj needs a single-column index",
			def.Name, len(def.Columns))
	}
	if n.OuterKey == "" {
		return nil, cc.errf(n, "missing outer_key")
	}
	ord := shapeOrdinal(outer.shape, n.OuterKey)
	if ord < 0 {
		return nil, cc.errf(n, "outer_key %q is not in the outer input row (columns: %s)",
			n.OuterKey, shapeList(outer.shape))
	}
	ob, name := outer.row, def.Name
	// The joined inner rows are the index's base table.
	inner := cc.tableShape(cc.model.indexTable(def))
	return &compiled{kind: opRows, shape: concatShape(outer.shape, inner),
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewIndexNestedLoopJoin(ctx, ob(ctx, c, q), c.Index(name), ord)
		}}, nil
}

func compileMergeJoin(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	l, err := cc.child(n, n.Left, "left", opRows)
	if err != nil {
		return nil, err
	}
	r, err := cc.child(n, n.Right, "right", opRows)
	if err != nil {
		return nil, err
	}
	if len(n.LeftKeys) != len(n.RightKeys) {
		return nil, cc.errf(n, "key arity mismatch: %d left_keys vs %d right_keys",
			len(n.LeftKeys), len(n.RightKeys))
	}
	lk, err := cc.joinKeys(n, n.LeftKeys, l.shape, "left")
	if err != nil {
		return nil, err
	}
	rk, err := cc.joinKeys(n, n.RightKeys, r.shape, "right")
	if err != nil {
		return nil, err
	}
	lb, rb := l.row, r.row
	return &compiled{kind: opRows, shape: concatShape(l.shape, r.shape),
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewMergeJoinRows(ctx, lb(ctx, c, q), rb(ctx, c, q), lk, rk)
		}}, nil
}

func compileHashJoin(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	b, err := cc.child(n, n.Build, "build", opRows)
	if err != nil {
		return nil, err
	}
	p, err := cc.child(n, n.Probe, "probe", opRows)
	if err != nil {
		return nil, err
	}
	if len(n.BuildKeys) != len(n.ProbeKeys) {
		return nil, cc.errf(n, "key arity mismatch: %d build_keys vs %d probe_keys",
			len(n.BuildKeys), len(n.ProbeKeys))
	}
	bk, err := cc.joinKeys(n, n.BuildKeys, b.shape, "build")
	if err != nil {
		return nil, err
	}
	pk, err := cc.joinKeys(n, n.ProbeKeys, p.shape, "probe")
	if err != nil {
		return nil, err
	}
	buildSchema := schemaFor(b.shape)
	probeSchema := schemaFor(p.shape)
	bb, pb := b.row, p.row
	return &compiled{kind: opRows, shape: concatShape(b.shape, p.shape),
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewHashJoinRows(ctx, bb(ctx, c, q), pb(ctx, c, q),
				buildSchema, probeSchema, bk, pk)
		}}, nil
}

func compileSort(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	in, err := cc.child(n, n.Input, "sort", opRows)
	if err != nil {
		return nil, err
	}
	if len(n.Keys) == 0 {
		return nil, cc.errf(n, "missing keys")
	}
	keys, err := cc.joinKeys(n, n.Keys, in.shape, "sort")
	if err != nil {
		return nil, err
	}
	var policy exec.SpillPolicy
	switch n.Policy {
	case "", "graceful":
		policy = exec.PolicyGraceful
	case "degenerate":
		policy = exec.PolicyDegenerate
	default:
		return nil, cc.errf(n, "unknown policy %q (want \"graceful\" or \"degenerate\")", n.Policy)
	}
	schema := schemaFor(in.shape)
	rb := in.row
	return &compiled{kind: opRows, shape: in.shape,
		row: func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewSort(ctx, rb(ctx, c, q), schema, keys, policy)
		}}, nil
}

// aggFns maps spec aggregate names onto exec kinds.
var aggFns = map[string]exec.AggKind{
	"count": exec.AggCount,
	"sum":   exec.AggSum,
	"min":   exec.AggMin,
	"max":   exec.AggMax,
}

func compileAgg(cc *compileCtx, n *spec.PlanNode) (*compiled, error) {
	in, err := cc.child(n, n.Input, n.Op, opRows)
	if err != nil {
		return nil, err
	}
	groupBy, err := cc.joinKeys(n, n.GroupBy, in.shape, "group_by")
	if err != nil {
		return nil, err
	}
	shape := make([]record.Column, 0, len(groupBy)+len(n.Aggs))
	for _, g := range groupBy {
		shape = append(shape, in.shape[g])
	}
	aggs := make([]exec.AggSpec, len(n.Aggs))
	for i, a := range n.Aggs {
		kind, ok := aggFns[a.Fn]
		if !ok {
			return nil, cc.errf(n, "unknown aggregate %q (want count, sum, min, or max)", a.Fn)
		}
		as := exec.AggSpec{Kind: kind}
		col := record.Column{Name: a.Fn, Type: record.TypeInt64}
		if kind != exec.AggCount {
			if a.Column == "" {
				return nil, cc.errf(n, "aggregate %q needs a column", a.Fn)
			}
			ord := shapeOrdinal(in.shape, a.Column)
			if ord < 0 {
				return nil, cc.errf(n, "aggregate column %q is not in the input row (columns: %s)",
					a.Column, shapeList(in.shape))
			}
			as.Col = ord
			col.Name = a.Fn + "_" + a.Column
			if kind == exec.AggSum {
				col.Type = record.TypeFloat64
			} else {
				col.Type = in.shape[ord].Type
			}
		}
		aggs[i] = as
		shape = append(shape, col)
	}
	rb := in.row
	var row rowBuild
	switch n.Op {
	case "stream_agg":
		row = func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewStreamAggregate(ctx, rb(ctx, c, q), groupBy, aggs)
		}
	case "spill_agg":
		inSchema := schemaFor(in.shape)
		row = func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewSpillingHashAggregate(ctx, rb(ctx, c, q), inSchema, groupBy, aggs)
		}
	default: // hash_agg
		row = func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			return exec.NewHashAggregate(ctx, rb(ctx, c, q), groupBy, aggs)
		}
	}
	return &compiled{kind: opRows, shape: shape, row: row}, nil
}

// --- Whole-workload compilation -------------------------------------------

// CompiledSystem is one system's compiled output: its spec (name,
// versioning, index selection — what the engine needs to build it) and
// its plans.
type CompiledSystem struct {
	Spec  *spec.SystemSpec
	Plans []Plan
}

// CompiledWorkload is a fully validated, compiled workload: every plan
// resolved to a Plan whose Build measures exactly like a hand-written
// constructor.
type CompiledWorkload struct {
	Spec    *spec.WorkloadSpec
	Systems []CompiledSystem
	byID    map[string]Plan
}

// Plan returns the compiled plan with the given id.
func (cw *CompiledWorkload) Plan(id string) (Plan, bool) {
	p, ok := cw.byID[id]
	return p, ok
}

// Plans returns every compiled plan in declaration order.
func (cw *CompiledWorkload) Plans() []Plan {
	var out []Plan
	for _, sys := range cw.Systems {
		out = append(out, sys.Plans...)
	}
	return out
}

// CompileWorkload validates and compiles a workload spec: structural
// validation first (spec.Validate), then catalog resolution against the
// generator schema, then every plan tree through the operator registry.
// All name/ordinal/reference errors surface here, once, with stable
// messages — never at measurement time.
func CompileWorkload(ws *spec.WorkloadSpec) (*CompiledWorkload, error) {
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	model, err := modelFor(&ws.Catalog)
	if err != nil {
		return nil, err
	}
	cw := &CompiledWorkload{Spec: ws, byID: make(map[string]Plan)}
	for si := range ws.Systems {
		sys := &ws.Systems[si]
		cs := CompiledSystem{Spec: sys}
		for pi := range sys.Plans {
			p, err := compilePlan(model, sys, &sys.Plans[pi])
			if err != nil {
				return nil, err
			}
			cs.Plans = append(cs.Plans, p)
			cw.byID[p.ID] = p
		}
		cw.Systems = append(cw.Systems, cs)
	}
	return cw, nil
}

// compilePlan compiles one plan tree.
func compilePlan(model *catalogModel, sys *spec.SystemSpec, ps *spec.PlanSpec) (Plan, error) {
	cc := &compileCtx{model: model, sys: sys, planID: ps.ID}
	comp, err := cc.compileNode(ps.Root)
	if err != nil {
		return Plan{}, err
	}
	if comp.kind != opRows {
		return Plan{}, fmt.Errorf("plan: plan %q: root %s produces RIDs; the root must produce rows (wrap it in a fetch or rids_as_rows)",
			ps.ID, ps.Root.Op)
	}
	build := comp.row
	id := ps.ID
	if ps.RequiresTB {
		inner := build
		build = func(ctx *exec.Ctx, c *catalog.Catalog, q Query) exec.RowIter {
			if q.OnlyA() {
				panic(fmt.Sprintf("plan %s requires a two-predicate query", id))
			}
			return inner(ctx, c, q)
		}
	}
	return Plan{ID: id, System: sys.Name, Description: ps.Description, Build: build}, nil
}
