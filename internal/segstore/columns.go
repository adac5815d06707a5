package segstore

import (
	"slices"

	"streamsum/internal/geom"
)

// Columns holds the filter-phase features of a run of rows in flat
// parallel arrays, so the filter phase is one sequential pass over
// contiguous memory: row i's id is IDs[i], its MBR MBR[2·Dim·i :
// 2·Dim·(i+1)] (Min then Max), and its feature vector Feat[i]. Every
// filter scan in the system runs here: a segment's columns (decoded once
// at open), the archive's memory tier and the standing-query target
// classes.
type Columns struct {
	Dim  int
	IDs  []int64
	MBR  []float64
	Feat [][4]float64
}

// MakeColumns returns empty columns with room for n rows.
func MakeColumns(dim, n int) Columns {
	return Columns{
		Dim:  dim,
		IDs:  make([]int64, 0, n),
		MBR:  make([]float64, 0, 2*dim*n),
		Feat: make([][4]float64, 0, n),
	}
}

// Len returns the number of rows.
func (c *Columns) Len() int { return len(c.IDs) }

// Push appends one row.
func (c *Columns) Push(id int64, m geom.MBR, feat [4]float64) {
	c.IDs = append(c.IDs, id)
	c.MBR = append(c.MBR, m.Min...)
	c.MBR = append(c.MBR, m.Max...)
	c.Feat = append(c.Feat, feat)
}

// Append appends o's rows.
func (c *Columns) Append(o *Columns) {
	c.IDs = append(c.IDs, o.IDs...)
	c.MBR = append(c.MBR, o.MBR...)
	c.Feat = append(c.Feat, o.Feat...)
}

// Delete removes row i in place, keeping the order of the rest.
func (c *Columns) Delete(i int) {
	w := 2 * c.Dim
	c.IDs = slices.Delete(c.IDs, i, i+1)
	c.MBR = slices.Delete(c.MBR, i*w, (i+1)*w)
	c.Feat = slices.Delete(c.Feat, i, i+1)
}

// Slice returns rows [i:j) sharing the backing arrays, capped at j so an
// append through the result can never reach a row the owner may write.
func (c *Columns) Slice(i, j int) Columns {
	w := 2 * c.Dim
	return Columns{
		Dim:  c.Dim,
		IDs:  c.IDs[i:j:j],
		MBR:  c.MBR[i*w : j*w : j*w],
		Feat: c.Feat[i:j:j],
	}
}

// RowMBR returns row i's MBR as capacity-capped views of the MBR column:
// no allocation, and an append through either point copies instead of
// overwriting the next row.
func (c *Columns) RowMBR(i int) geom.MBR {
	lo, mid, hi := 2*c.Dim*i, 2*c.Dim*i+c.Dim, 2*c.Dim*(i+1)
	return geom.MBR{Min: c.MBR[lo:mid:mid], Max: c.MBR[mid:hi:hi]}
}

// Find returns the row holding id, or -1. IDs must ascend.
func (c *Columns) Find(id int64) int {
	if i, ok := slices.BinarySearch(c.IDs, id); ok {
		return i
	}
	return -1
}

// Probe is the filter phase's one range test, in one of its two forms:
// with Location set, an overlap with the box MBR (inclusive boundaries,
// exactly geom.MBR.Intersects); otherwise the inclusive feature box
// [Lo, Hi].
type Probe struct {
	Location bool
	MBR      geom.MBR
	Lo, Hi   [4]float64
}

// Search visits the rows p admits whose feature vector passes gate (nil
// admits every row). It returns the number of rows p admits, whatever
// the gate says, and whether visit asked to stop. It picks the probe's
// scan once per call, so neither loop branches on the probe kind per row.
func (c *Columns) Search(p Probe, gate func([4]float64) bool, visit func(i int) bool) (probed int, stopped bool) {
	if p.Location {
		return c.searchLocation(p.MBR, gate, visit)
	}
	return c.searchFeatures(p.Lo, p.Hi, gate, visit)
}

func (c *Columns) searchLocation(q geom.MBR, gate func([4]float64) bool, visit func(i int) bool) (probed int, stopped bool) {
	if q.IsEmpty() {
		return 0, false
	}
	w := 2 * c.Dim
	for i := range c.IDs {
		if !geom.IntersectsFlat(c.MBR[i*w:(i+1)*w], q) {
			continue
		}
		probed++
		if gate != nil && !gate(c.Feat[i]) {
			continue
		}
		if !visit(i) {
			return probed, true
		}
	}
	return probed, false
}

func (c *Columns) searchFeatures(lo, hi [4]float64, gate func([4]float64) bool, visit func(i int) bool) (probed int, stopped bool) {
	for i, v := range c.Feat {
		if v[0] < lo[0] || v[0] > hi[0] || v[1] < lo[1] || v[1] > hi[1] ||
			v[2] < lo[2] || v[2] > hi[2] || v[3] < lo[3] || v[3] > hi[3] {
			continue
		}
		probed++
		if gate != nil && !gate(v) {
			continue
		}
		if !visit(i) {
			return probed, true
		}
	}
	return probed, false
}
