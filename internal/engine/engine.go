// Package engine assembles the three database systems of the paper's study
// over a shared synthetic dataset and runs fixed plans against them under
// a deterministic cost model.
//
// The paper measured three commercial systems; we reproduce each system's
// architectural signature (see DESIGN.md):
//
//   - System A: heap table, single-column non-clustered indexes on a and
//     b; traditional and improved fetches; merge and hash index
//     intersection.
//   - System B: MVCC version headers on base rows only, so no index is
//     covering and every plan ends in a bitmap-driven fetch; two-column
//     indexes (a,b) and (b,a) evaluate both predicates on entries first.
//   - System C: two-column covering indexes driven by MDAM.
//
// Every system is built over a catalog of generated tables (see
// datagen.Catalog); the paper's study is the one-table catalog holding
// the lineitem relation, for which Config's Rows and Seed are shorthand.
//
// Every Run gets a fresh virtual clock, device, and cold buffer pool, so
// measurements are deterministic and independent — the conditions the
// paper needs for reproducible robustness maps.
package engine

import (
	"fmt"
	"sync"
	"time"

	"robustmap/internal/btree"
	"robustmap/internal/catalog"
	"robustmap/internal/datagen"
	"robustmap/internal/iomodel"
	"robustmap/internal/mvcc"
	"robustmap/internal/plan"
	"robustmap/internal/record"
	"robustmap/internal/simclock"
	"robustmap/internal/storage"
)

// MeasurementVersion names the measurement semantics of this engine
// build: bump it whenever a change alters any measured time or row
// count (cost-model constants, operator charge sequences, data
// generation). Persistent stores key their contents on it, so stale
// measurements from an older engine are quarantined instead of being
// replayed into maps the current engine would not reproduce.
const MeasurementVersion = "sim-v1"

// Config parameterizes a system build. Every system is built over a
// catalog of generated tables; the paper's study uses a one-table
// catalog holding the lineitem relation.
type Config struct {
	// Rows and Seed are shorthand for the one-table catalog of the
	// paper's study: a single plan.TableName table of that cardinality
	// and generation seed. Ignored when Tables is set.
	Rows int64
	Seed int64
	// PoolPages is the buffer pool capacity for each query run. It should
	// be well below the table's page count for realistic fetch costs.
	PoolPages int
	// MemoryBudget is the per-query operator memory in bytes.
	MemoryBudget int64
	// IO is the device cost profile.
	IO iomodel.Params
	// Versioned adds MVCC headers to base rows (System B).
	Versioned bool
	// Indexes lists which secondary indexes to build on the shorthand
	// lineitem table: any of "a", "b", "ab", "ba" — the conventional
	// IndexDefs of the paper's study. Ignored when IndexDefs is set;
	// rejected together with Tables.
	Indexes []string
	// IndexDefs generalizes Indexes: arbitrary named secondary indexes
	// over schema columns, in key order. Workload-spec systems build
	// through this.
	IndexDefs []IndexDef
	// Tables lists the generated tables (see datagen.Catalog for the
	// schemas); empty means the Rows/Seed shorthand.
	Tables datagen.Catalog
}

// IndexDef names one secondary index to build: its key columns, in
// order. Table binds it to one table of the catalog; empty means the
// first (or only) table.
type IndexDef struct {
	Name    string
	Table   string
	Columns []string
}

// tables resolves the configured catalog: Tables verbatim, or the
// shorthand one-table lineitem catalog.
func (c Config) tables() datagen.Catalog {
	if len(c.Tables) > 0 {
		return c.Tables
	}
	return datagen.Catalog{{Name: plan.TableName, Rows: c.Rows, Seed: c.Seed}}
}

// indexDefs resolves the configured index set: IndexDefs verbatim, or
// the Indexes shorthand mapped onto the conventional definitions.
func (c Config) indexDefs() ([]IndexDef, error) {
	if len(c.Indexes) > 0 && len(c.Tables) > 0 {
		return nil, fmt.Errorf("engine: the Indexes shorthand names the lineitem table of the Rows/Seed shorthand; use IndexDefs with Tables")
	}
	if len(c.IndexDefs) > 0 {
		return c.IndexDefs, nil
	}
	defs := make([]IndexDef, 0, len(c.Indexes))
	for _, s := range c.Indexes {
		switch s {
		case "a":
			defs = append(defs, IndexDef{Name: plan.IdxA, Columns: []string{"a"}})
		case "b":
			defs = append(defs, IndexDef{Name: plan.IdxB, Columns: []string{"b"}})
		case "ab":
			defs = append(defs, IndexDef{Name: plan.IdxAB, Columns: []string{"a", "b"}})
		case "ba":
			defs = append(defs, IndexDef{Name: plan.IdxBA, Columns: []string{"b", "a"}})
		default:
			return nil, fmt.Errorf("engine: unknown index spec %q", s)
		}
	}
	return defs, nil
}

// DefaultConfig returns the experiment defaults: 2^17 rows (the sweeps use
// fractions of the table, as the paper does), a buffer pool of 1/8 of the
// table, 16 MiB of operator memory, and the disk profile.
func DefaultConfig() Config {
	return Config{
		Rows:         1 << 17,
		Seed:         2009,
		PoolPages:    256,
		MemoryBudget: 16 << 20,
		IO:           iomodel.DefaultParams(),
		Indexes:      []string{"a", "b"},
	}
}

// System is one built database system: a shared disk holding the loaded
// table and indexes, plus the metadata to reopen them cheaply per run.
//
// # Concurrency
//
// A System is immutable once BuildSystem returns: every field, including
// the index metadata map, is only read afterwards, and the loaded heap and
// index pages are never written by query runs. All per-run mutable state —
// clock, device, buffer pool, catalog wiring, MVCC store views, spill
// files — lives in a Session, and the shared Disk serializes file-table
// mutation internally (sessions create and drop private spill files during
// runs). Run and NewSession are therefore safe to call from any number of
// goroutines concurrently; each call measures in full isolation.
// (btree.WarmNonLeaf only populates the calling session's pool, and the
// btree encode scratch buffers are a sync.Pool — both shared-safe.)
type System struct {
	Name string
	cfg  Config

	disk      *storage.Disk
	tables    []tableMeta // in catalog order; tables[0] is the axis table
	versioned bool
	indexes   map[string]indexMeta
	snapHigh  mvcc.TxnID

	// sessions recycles measurement Sessions for RunShared. Recycling is
	// invisible in the results: Session.Run restores the cold-start state.
	sessions sync.Pool
}

type indexMeta struct {
	name     string
	table    int // index into System.tables
	columns  []string
	covering bool
	meta     btree.Meta
}

// tableMeta is one loaded table.
type tableMeta struct {
	name     string
	schema   *record.Schema
	heapFile storage.FileID
	rows     int64
	// colData retains every generated int64 column in insertion order,
	// indexed by schema ordinal (nil for other types), so ResultSize and
	// join-size oracles answer without executing a plan. At 8 bytes per
	// row and column it buys adaptive sweeps an exact row-count oracle
	// for grid cells they never measure.
	colData [][]int64
}

// Result is one measured plan execution.
type Result struct {
	Plan     string
	Query    plan.Query
	Rows     int64
	Time     time.Duration
	Accounts map[simclock.Account]time.Duration
	Device   iomodel.Stats
	Pool     storage.PoolStats
}

// BuildSystem loads the dataset and indexes for one system configuration:
// one heap per table in catalog order (so file layout — and therefore
// every measured time — is a pure function of the config), then every
// index in definition order. Loading happens on a throwaway clock; only
// Run costs are measured.
func BuildSystem(name string, cfg Config) (*System, error) {
	tables := cfg.tables()
	if err := tables.Validate(); err != nil {
		return nil, fmt.Errorf("engine: build %q: %w", name, err)
	}
	if err := cfg.IO.Validate(); err != nil {
		return nil, err
	}
	defs, err := cfg.indexDefs()
	if err != nil {
		return nil, err
	}
	disk := storage.NewDisk()
	loadClock := simclock.New()
	dev := iomodel.NewDevice(cfg.IO, loadClock)
	// A large pool for loading keeps load-time Go overhead low; run-time
	// pools are sized by cfg.PoolPages.
	pool := storage.NewPool(disk, dev, loadClock, 4096)

	sys := &System{
		Name:    name,
		cfg:     cfg,
		disk:    disk,
		indexes: make(map[string]indexMeta),
	}
	var txn mvcc.TxnID
	if cfg.Versioned {
		txn = mvcc.NewManager().Begin()
		sys.versioned = true
		sys.snapHigh = txn
	}

	loaded := make([]*catalog.Table, len(tables))
	for i, tc := range tables {
		schema := tables.Schema(i)
		heap := storage.CreateHeap(pool)
		tbl := &catalog.Table{Name: tc.Name, Schema: schema, Heap: heap}
		var store *mvcc.Store
		if cfg.Versioned {
			store = mvcc.NewStore(heap)
			tbl.Versioned = store
		}
		colData := make([][]int64, schema.NumColumns())
		var ints []int
		for o, col := range schema.Columns() {
			if col.Type == record.TypeInt64 {
				ints = append(ints, o)
				colData[o] = make([]int64, 0, tc.Rows)
			}
		}
		var encodeBuf []byte
		err := tables.Generate(i, func(row []record.Value) error {
			for _, o := range ints {
				colData[o] = append(colData[o], row[o].AsInt())
			}
			var err error
			encodeBuf, err = schema.Encode(encodeBuf[:0], row)
			if err != nil {
				return err
			}
			if store != nil {
				store.Insert(txn, encodeBuf)
			} else {
				heap.Append(encodeBuf)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sys.tables = append(sys.tables, tableMeta{
			name: tc.Name, schema: schema, heapFile: heap.File(), rows: heap.NumRows(), colData: colData,
		})
		loaded[i] = tbl
	}

	loader := catalog.Loader(pool, loadClock)
	for _, def := range defs {
		if def.Name == "" {
			return nil, fmt.Errorf("engine: index definition with no name")
		}
		if len(def.Columns) == 0 {
			return nil, fmt.Errorf("engine: index %q has no columns", def.Name)
		}
		ti := 0
		if def.Table != "" {
			if ti = tables.Lookup(def.Table); ti < 0 {
				return nil, fmt.Errorf("engine: index %q references unknown table %q", def.Name, def.Table)
			}
		}
		tbl := loaded[ti]
		for _, col := range def.Columns {
			if tbl.Schema.Ordinal(col) < 0 {
				return nil, fmt.Errorf("engine: index %q references unknown column %q of table %q", def.Name, col, tbl.Name)
			}
		}
		covering := !cfg.Versioned // MVCC on base rows only: never covering
		ix, err := catalog.BuildIndex(def.Name, tbl, loader, covering, def.Columns...)
		if err != nil {
			return nil, err
		}
		sys.indexes[def.Name] = indexMeta{
			name: def.Name, table: ti, columns: def.Columns, covering: covering, meta: btree.MetaOf(ix.Tree),
		}
	}
	pool.FlushAll()
	return sys, nil
}

// SystemA builds the paper's System A over the default-style config.
func SystemA(cfg Config) (*System, error) {
	cfg.Versioned = false
	cfg.Indexes = []string{"a", "b"}
	return BuildSystem("A", cfg)
}

// SystemB builds System B: MVCC base rows, single- and two-column indexes,
// none covering.
func SystemB(cfg Config) (*System, error) {
	cfg.Versioned = true
	cfg.Indexes = []string{"a", "b", "ab", "ba"}
	return BuildSystem("B", cfg)
}

// SystemC builds System C: covering two-column indexes for MDAM.
func SystemC(cfg Config) (*System, error) {
	cfg.Versioned = false
	cfg.Indexes = []string{"ab", "ba"}
	return BuildSystem("C", cfg)
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Rows returns the first (axis) table's cardinality — the one whose
// size scales the sweep thresholds.
func (s *System) Rows() int64 { return s.tables[0].rows }

// openCatalog rewires the persistent disk objects to a fresh pool/clock.
func (s *System) openCatalog(pool *storage.Pool, clock *simclock.Clock) *catalog.Catalog {
	c := catalog.New()
	tables := make([]*catalog.Table, len(s.tables))
	for i := range s.tables {
		tables[i] = s.openTable(i, pool)
		c.AddTable(tables[i])
	}
	for _, im := range s.indexes {
		tbl := tables[im.table]
		ords := make([]int, len(im.columns))
		for i, col := range im.columns {
			ords[i] = tbl.Schema.MustOrdinal(col)
		}
		c.AddIndex(&catalog.Index{
			Name: im.name, Table: tbl, Columns: im.columns, Ordinals: ords,
			Tree: btree.Open(pool, clock, im.meta), Covering: im.covering,
		})
	}
	return c
}

// openTable rewires table i's heap to the given pool.
func (s *System) openTable(i int, pool *storage.Pool) *catalog.Table {
	tm := &s.tables[i]
	heap := storage.OpenHeap(pool, tm.heapFile, tm.rows)
	tbl := &catalog.Table{Name: tm.name, Schema: tm.schema, Heap: heap}
	if s.versioned {
		tbl.Versioned = mvcc.NewStore(heap)
	}
	return tbl
}

// Run executes one plan at one query point on a throwaway Session and
// returns the measured virtual-time result. See Session.Run for the
// measurement conditions. Callers measuring many points should hold a
// Session per goroutine and call its Run instead, which reuses the pool
// frames and catalog wiring.
func (s *System) Run(p plan.Plan, q plan.Query) Result {
	return s.NewSession().Run(p, q)
}

// Disk exposes the system's loaded disk image so specialized experiments
// (e.g., the parallel-scan study) can attach their own per-worker pools.
func (s *System) Disk() *storage.Disk { return s.disk }

// ResultSize returns how many rows of the first table satisfy the query
// point (a < TA, and b < TB when TB >= 0) — on the paper's one-table
// catalog, the exact value every correct plan's execution returns as its
// row count. It consults the generated column data directly, off the
// cost model's books: no clock advances and no pages are touched.
// Adaptive sweeps use it to fill the Rows grid of cells they skip, and
// as an extra cross-check at cells they measure. Join result sizes
// depend on the query's join tree and are computed from ColumnData by
// whoever knows its semantics (internal/service).
func (s *System) ResultSize(q plan.Query) int64 {
	// Both generated schemas lead with (id, a, b).
	a, b := s.tables[0].colData[1], s.tables[0].colData[2]
	var n int64
	for i, v := range a {
		if v < q.TA && (q.TB < 0 || b[i] < q.TB) {
			n++
		}
	}
	return n
}

// OpenTable rewires the system's first table to the given pool — the
// per-worker view of the parallel experiment. The clock used for index
// access is the pool's own; this accessor exposes the heap only.
func (s *System) OpenTable(pool *storage.Pool) *catalog.Table { return s.openTable(0, pool) }

// Multi reports whether the system was built from a catalog of more
// than one table.
func (s *System) Multi() bool { return len(s.tables) > 1 }

// ColumnData returns one generated int64 column in insertion order, or
// nil if the table or column is unknown or the column is not int64.
// Like ResultSize it is off the cost model's books.
func (s *System) ColumnData(table, column string) []int64 {
	for i := range s.tables {
		if tm := &s.tables[i]; tm.name == table {
			if o := tm.schema.Ordinal(column); o >= 0 {
				return tm.colData[o]
			}
		}
	}
	return nil
}

// TableRows returns one table's cardinality, or -1 if unknown.
func (s *System) TableRows(table string) int64 {
	for _, tm := range s.tables {
		if tm.name == table {
			return tm.rows
		}
	}
	return -1
}

// HasIndexes reports whether the system has every named index — used by
// experiment definitions to pick runnable plans per system.
func (s *System) HasIndexes(names ...string) bool {
	for _, n := range names {
		if _, ok := s.indexes[n]; !ok {
			return false
		}
	}
	return true
}
