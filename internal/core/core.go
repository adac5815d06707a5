package core

import (
	"fmt"

	"streamsum/internal/conntab"
	"streamsum/internal/geom"
	"streamsum/internal/grid"
	"streamsum/internal/sgs"
	"streamsum/internal/trace"
	"streamsum/internal/window"
)

// Config parameterizes a continuous clustering query (Figure 2):
// DETECT DensityBasedClusters FROM stream USING θrange, θcnt IN WINDOWS
// WITH win AND slide.
type Config struct {
	Dim    int
	ThetaR float64
	ThetaC int
	Window window.Spec
	// SkipSummaries suppresses SGS construction at the output stage
	// (Cluster.Summary stays nil). The skeletal-grid meta-data is still
	// maintained — it *is* the extraction mechanism — so this isolates
	// exactly the summarization output cost the paper's ≤6% overhead claim
	// is about. Used by ablation experiments; the public facade always
	// summarizes.
	SkipSummaries bool
	// Workers bounds both of C-SGS's internal fan-outs: PushBatch's
	// neighbor-discovery phase and the output stage's parallel phases
	// (connection pruning, edge-attachment resolution, per-cluster summary
	// construction). <= 0 means one worker per available CPU (GOMAXPROCS);
	// 1 forces the fully sequential paths. Results are byte-identical at
	// every setting — the fan-outs only run over frozen state and write to
	// pre-assigned slots. Extra-N (internal/extran) shares this Config and
	// ignores Workers: it runs sequentially.
	Workers int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Dim < 1 || c.Dim > grid.MaxDim {
		return fmt.Errorf("core: dimension %d out of range [1,%d]", c.Dim, grid.MaxDim)
	}
	if c.ThetaR <= 0 {
		return fmt.Errorf("core: θr must be positive, got %g", c.ThetaR)
	}
	if c.ThetaC < 1 {
		return fmt.Errorf("core: θc must be at least 1, got %d", c.ThetaC)
	}
	return c.Window.Validate()
}

// Cluster is one extracted cluster in both representations.
type Cluster struct {
	ID      int64
	Members []int64 // tuple ids, sorted (full representation)
	Cores   []int64 // core-object tuple ids, sorted
	Summary *sgs.Summary
}

// WindowResult holds all clusters of one window.
type WindowResult struct {
	Window   int64
	Clusters []*Cluster
}

// Stats reports the extractor's live meta-data sizes.
type Stats struct {
	Objects     int // objects in the current window state
	Cells       int // live skeletal grid cells
	Connections int // live connection entries across all cells
}

// object is one stream tuple inside the window state.
type object struct {
	id       int64
	p        geom.Point
	cell     *cell
	cellIdx  int   // index within cell.objs
	last     int64 // last window this object participates in
	coreLast int64 // predicted last core window (window.Never if none)
	grownSeg int64 // batch segment that last recorded a career growth (dedup)
	tracker  window.CoreTracker
	nbrs     []*object // neighbor refs; pruned lazily (see compactNbrs)
}

// cell is a skeletal grid cell with its live objects and lifespans
// (population is len(objs); location is coord; side length is the
// geometry's). nbrCells caches the occupied cells within neighbor offsets
// so the per-object range query search visits only occupied cells; the
// links are maintained on cell creation and deletion.
//
// conns is the cell's connection table: per adjacent cell one inline
// conntab.Entry whose CoreLast is the symmetric core-core connection
// lifespan (mirrored on both cells) and whose AttachOut is directional —
// the last window in which *this* cell is core and the other cell has an
// object attached to one of this cell's cores. The open-addressing layout
// keeps refresh's dominant probe traffic on contiguous memory instead of
// a pointer-per-entry map.
type cell struct {
	coord    grid.Coord
	objs     []*object
	coreLast int64 // last window this cell is a core cell (Lemma 5.1)
	conns    conntab.Table
	nbrCells []*cell
	// live caches the connections still alive in the window being
	// emitted; it is rebuilt by pruneConns at the start of every output
	// stage so the DFS and cluster assembly iterate a compact slice
	// instead of the conns table (twice).
	live []liveConn
}

// liveConn is one connection surviving into the current window.
type liveConn struct {
	coord     grid.Coord
	coreConn  bool // core-core connection live (Lemma 5.2)
	attachOut bool // this-cell-core attachment live
}

// conn returns the connection entry toward other, creating it with dead
// lifespans on first use. The pointer is valid until the next Upsert or
// Prune on this cell's table (see conntab's pointer-validity contract).
func (c *cell) conn(other grid.Coord) *conntab.Entry {
	e, created := c.conns.Upsert(other)
	if created {
		e.CoreLast, e.AttachOut = window.Never, window.Never
	}
	return e
}

// Extractor is the C-SGS pattern extractor. It is not safe for concurrent
// use; wrap it in the stream executor for pipelined operation.
type Extractor struct {
	cfg Config
	geo *grid.Geometry

	cur     int64 // index of the next window to emit
	lastPos int64 // highest position pushed so far (monotonicity check)
	nextID  int64 // next tuple id
	nextCID int64 // next cluster id
	segSeq  int64 // batch segment counter (career-growth dedup epoch)

	cells  map[grid.Coord]*cell
	blocks *grid.Blocks[*cell] // the cells again, for neighborhood queries
	expiry map[int64][]*object // window n -> objects with last == n

	// segCells and segBlocks index the cells of the batch segment being
	// inserted, by coordinate and by block; each segment empties them and
	// reuses their storage.
	segCells  map[grid.Coord]int32
	segBlocks *grid.Blocks[int32]

	objCount int

	// tr is the in-flight batch's span trace (flight recorder category
	// Ingest), set only for the duration of a PushBatch; nil otherwise
	// (single-tuple Push is untraced). Ingestion is single-caller, so no
	// synchronization is needed.
	tr *trace.Trace
}

// New returns an extractor for the given query.
func New(cfg Config) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geo, err := grid.NewGeometry(cfg.Dim, cfg.ThetaR)
	if err != nil {
		return nil, err
	}
	return &Extractor{
		cfg:     cfg,
		geo:     geo,
		lastPos: -1,
		cells:   make(map[grid.Coord]*cell),
		blocks:  grid.NewBlocks[*cell](geo),
		expiry:  make(map[int64][]*object),

		segCells:  make(map[grid.Coord]int32),
		segBlocks: grid.NewBlocks[int32](geo),
	}, nil
}

// Config returns the extractor's configuration.
func (e *Extractor) Config() Config { return e.cfg }

// Geometry returns the grid geometry (finest resolution, diagonal = θr).
func (e *Extractor) Geometry() *grid.Geometry { return e.geo }

// CurrentWindow returns the index of the next window to be emitted.
func (e *Extractor) CurrentWindow() int64 { return e.cur }

// Stats returns live meta-data counts.
func (e *Extractor) Stats() Stats {
	s := Stats{Cells: len(e.cells), Objects: e.objCount}
	for _, c := range e.cells {
		s.Connections += c.conns.Len()
	}
	return s
}

// Push feeds one tuple. For count-based windows ts is ignored (the arrival
// sequence number is the position); for time-based windows ts is the
// tuple's timestamp and must be non-decreasing. Push returns the id
// assigned to the tuple and the results of any windows that were completed
// by this tuple's arrival (a tuple positioned past a window's end proves
// that window's content is complete).
func (e *Extractor) Push(p geom.Point, ts int64) (int64, []*WindowResult, error) {
	if err := e.checkPoint(p); err != nil {
		return 0, nil, err
	}
	id := e.nextID
	e.nextID++
	pos := id
	if e.cfg.Window.Kind == window.TimeBased {
		pos = ts
	}
	if pos < e.lastPos {
		return 0, nil, fmt.Errorf("core: out-of-order position %d after %d", pos, e.lastPos)
	}
	e.lastPos = pos
	MetricTuples.Inc()

	var out []*WindowResult
	for pos >= e.cfg.Window.End(e.cur) {
		out = append(out, e.emit())
	}
	if e.cfg.Window.LastWindow(pos) < e.cur {
		// The tuple's entire lifespan lies in already-emitted windows
		// (possible only after a mid-stream Flush); it can never appear in
		// an output and is dropped.
		return id, out, nil
	}
	e.insert(id, p, pos)
	return id, out, nil
}

// checkPoint rejects a tuple of the wrong dimension, or one the grid
// cannot index (grid.Geometry.Check).
func (e *Extractor) checkPoint(p geom.Point) error {
	if len(p) != e.cfg.Dim {
		return fmt.Errorf("core: tuple dimension %d != query dimension %d", len(p), e.cfg.Dim)
	}
	if err := e.geo.Check(p); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Flush force-emits the current (possibly still-filling) window, e.g. at
// end of stream, and returns its result.
func (e *Extractor) Flush() *WindowResult { return e.emit() }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
