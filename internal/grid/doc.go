// Package grid implements the uniform grid over the data space that
// underlies Skeletal Grid Summarization (§4.3).
//
// The space is partitioned into axis-aligned hypercubic cells. Following
// the paper, the default cell size is chosen so that the cell *diagonal*
// equals the clustering range threshold θr; then any two objects in the
// same cell are neighbors of each other, which is what makes each cell
// "well-connected" (Lemmas 4.1–4.2). Coarser cells are used by the
// multi-resolution summarization (§6.1).
//
// The package provides cell coordinate arithmetic (Coord, a fixed-size
// comparable value usable directly as a hash key), the rule for which
// cells can possibly contain neighbors of a point (CanNeighbor), a block
// index over occupied cells (Blocks) that finds the occupied ones around
// a cell by scanning at most 2^dim blocks instead of walking every
// neighbor offset (used by the single range query search each arriving
// object performs in C-SGS), and a simple grid-backed point index used by
// the non-integrated baselines. Check rejects a point whose cell the grid
// cannot represent (non-finite, or past the int32 cell range).
//
// # Concurrency
//
// Geometry is immutable after construction and safe for unrestricted
// concurrent use; it holds only the dimension, side, radius and reach, so
// NewGeometry costs O(1) at every dimension.
//
// Blocks is single-writer; its Near query performs no mutation of the
// index, so any number of goroutines may call it concurrently, each with a
// NearScratch of its own (or none), provided no Add/Remove overlaps with
// them.
//
// PointIndex is single-writer. Its read path — RangeQuery, Neighbors,
// CountNeighbors, Cells, Len, Geometry — performs no mutation of any kind
// (no lazy cell creation, no rebalancing), so any number of goroutines
// may read concurrently provided no Insert/Remove overlaps with them.
package grid
