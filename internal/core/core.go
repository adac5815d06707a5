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
	// nbrs holds one ref per neighbor: the low 32 bits of its id, resolved
	// through the extractor's ring. refresh and resolveEdgeCell drop the
	// refs of expired neighbors as they pass.
	nbrs []uint32
}

// maxSpan bounds the ids of the window state: the oldest live id and the
// id of any tuple admitted after it differ by less than maxSpan, so that
// the 32-bit ref a live object holds — even one to a neighbor expired
// since — names no other live object (doc.go, "Window state").
const maxSpan = 1 << 31

// ring holds the live objects in arrival order, indexed by tuple id: the
// object with id i sits in slots[i&mask]. [lo, hi) is the live id span:
// lo is the oldest live id (hi when the ring is empty) and hi is one past
// the newest. Ids skipped by a rejected tuple leave nil slots inside the
// span; every slot outside it is nil.
type ring struct {
	slots  []*object // power-of-two length
	mask   int64
	lo, hi int64
	live   int // non-nil slots
}

// minRing is the ring's initial capacity.
const minRing = 64

func newRing() ring {
	return ring{slots: make([]*object, minRing), mask: minRing - 1}
}

// resolve returns the live object the ref names, or nil if that object has
// expired: its slot is empty, or holds a later object.
func (r *ring) resolve(ref uint32) *object {
	if o := r.slots[int64(ref)&r.mask]; o != nil && uint32(o.id) == ref {
		return o
	}
	return nil
}

// put places o, whose id must exceed every id placed before, doubling the
// capacity until the live span fits.
func (r *ring) put(o *object) {
	if r.live == 0 {
		r.lo = o.id
	}
	for o.id-r.lo >= int64(len(r.slots)) {
		slots := make([]*object, 2*len(r.slots))
		mask := int64(len(slots) - 1)
		for id := r.lo; id < r.hi; id++ {
			slots[id&mask] = r.slots[id&r.mask]
		}
		r.slots, r.mask = slots, mask
	}
	r.slots[o.id&r.mask] = o
	r.hi = o.id + 1
	r.live++
}

// front returns the oldest live object, or nil if the ring is empty.
func (r *ring) front() *object {
	if r.live == 0 {
		return nil
	}
	return r.slots[r.lo&r.mask]
}

// pop removes the oldest live object and moves lo past the empty slots
// behind it.
func (r *ring) pop() {
	r.slots[r.lo&r.mask] = nil
	r.live--
	r.lo++
	for r.lo < r.hi && r.slots[r.lo&r.mask] == nil {
		r.lo++
	}
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
	ring   ring                // the live objects, by id

	// near and cands are Push's scratch for the block query and the range
	// query search.
	near  grid.NearScratch[*cell]
	cands []*object

	// segCells and segBlocks index the cells of the batch segment being
	// inserted, by coordinate and by block; each segment empties them and
	// reuses their storage.
	segCells  map[grid.Coord]int32
	segBlocks *grid.Blocks[int32]

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
		ring:    newRing(),

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
	s := Stats{Cells: len(e.cells), Objects: e.ring.live}
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
	if err := e.checkSpan(e.nextID, -1); err != nil {
		return 0, nil, err
	}
	id := e.nextID
	pos := id
	if e.cfg.Window.Kind == window.TimeBased {
		pos = ts
	}
	if pos < e.lastPos {
		return 0, nil, fmt.Errorf("core: out-of-order position %d after %d", pos, e.lastPos)
	}
	e.nextID++
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

// checkSpan rejects the tuple that would take id if admitting it could
// stretch the live id span to maxSpan. first is the id of the oldest tuple
// admitted but not yet placed in the ring (PushBatch's pending segment),
// or -1 if there is none. The span is measured before the tuple's
// arrival expires anything, the same in Push and PushBatch.
func (e *Extractor) checkSpan(id, first int64) error {
	oldest := first
	if e.ring.live > 0 {
		oldest = e.ring.lo
	}
	if oldest >= 0 && id-oldest >= maxSpan {
		return fmt.Errorf("core: tuple %d would span %d ids of window state from tuple %d; the limit is %d", id, id-oldest+1, oldest, maxSpan)
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
