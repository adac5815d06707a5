package archive

import "streamsum/internal/geom"

// columns is a FIFO run of memory-tier entries with their filter-phase
// features laid out flat beside them, so a gated search is one
// sequential pass over contiguous memory instead of a pointer chase per
// entry. The four slices are parallel: entry i is ents[i], its id ids[i]
// (ascending), its MBR mbr[2·dim·i:2·dim·(i+1)] (Min then Max), and its
// feature vector feat[i].
//
// A columns value handed to a snapshot or a demotion batch is capped at
// its length (see slice), and the writer only ever appends past the end
// of the arrays it owns or copies into fresh ones, so a published run is
// never written again and readers need no lock.
type columns struct {
	dim  int
	ents []*Entry
	ids  []int64
	mbr  []float64
	feat [][4]float64
}

// Len returns the number of entries in the run.
func (c *columns) Len() int { return len(c.ents) }

// push appends one entry's row.
func (c *columns) push(e *Entry) {
	c.ents = append(c.ents, e)
	c.ids = append(c.ids, e.ID)
	c.mbr = append(c.mbr, e.MBR.Min...)
	c.mbr = append(c.mbr, e.MBR.Max...)
	c.feat = append(c.feat, e.Features.Vector())
}

// slice returns rows [i:j) sharing the backing arrays, capped at j so an
// append through the result can never reach a row the owner may write.
func (c *columns) slice(i, j int) columns {
	w := 2 * c.dim
	return columns{
		dim:  c.dim,
		ents: c.ents[i:j:j],
		ids:  c.ids[i:j:j],
		mbr:  c.mbr[i*w : j*w : j*w],
		feat: c.feat[i:j:j],
	}
}

// cloneColumns copies the given runs, in order, into fresh arrays.
func cloneColumns(dim int, runs ...columns) columns {
	n := 0
	for _, r := range runs {
		n += r.Len()
	}
	c := columns{
		dim:  dim,
		ents: make([]*Entry, 0, n),
		ids:  make([]int64, 0, n),
		mbr:  make([]float64, 0, 2*dim*n),
		feat: make([][4]float64, 0, n),
	}
	for _, r := range runs {
		c.ents = append(c.ents, r.ents...)
		c.ids = append(c.ids, r.ids...)
		c.mbr = append(c.mbr, r.mbr...)
		c.feat = append(c.feat, r.feat...)
	}
	return c
}

// find returns the row holding id, or -1.
func (c *columns) find(id int64) int {
	lo, hi := 0, len(c.ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(c.ids) && c.ids[lo] == id {
		return lo
	}
	return -1
}

// gatedSearchLocation visits the entries whose MBR intersects q
// (inclusive boundaries, exactly geom.MBR.Intersects) and whose feature
// vector passes gate (nil admits everything). It returns the number of
// intersecting entries regardless of the gate, and whether visit asked
// to stop.
func (c *columns) gatedSearchLocation(q geom.MBR, gate func([4]float64) bool, visit func(*Entry) bool) (probed int, stopped bool) {
	if q.IsEmpty() {
		return 0, false
	}
	w := 2 * c.dim
	for i := range c.ents {
		if !geom.IntersectsFlat(c.mbr[i*w:(i+1)*w], q) {
			continue
		}
		probed++
		if gate != nil && !gate(c.feat[i]) {
			continue
		}
		if !visit(c.ents[i]) {
			return probed, true
		}
	}
	return probed, false
}

// gatedSearchFeatures visits the entries whose feature vector lies in the
// inclusive box [lo, hi] and passes gate; it returns the in-range count
// regardless of the gate, and whether visit asked to stop.
func (c *columns) gatedSearchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(*Entry) bool) (probed int, stopped bool) {
	for i, v := range c.feat {
		if v[0] < lo[0] || v[0] > hi[0] || v[1] < lo[1] || v[1] > hi[1] ||
			v[2] < lo[2] || v[2] > hi[2] || v[3] < lo[3] || v[3] > hi[3] {
			continue
		}
		probed++
		if gate != nil && !gate(v) {
			continue
		}
		if !visit(c.ents[i]) {
			return probed, true
		}
	}
	return probed, false
}
