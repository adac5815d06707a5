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
// comparable value usable directly as a hash key), enumeration of the cell
// offsets that can possibly contain neighbors of a point (used by the
// single range-query-search each arriving object performs in C-SGS), and a
// simple grid-backed point index used by the non-integrated baselines.
//
// # Concurrency
//
// Geometry is immutable after construction and safe for unrestricted
// concurrent use; its offset tables are computed once in NewGeometry.
//
// PointIndex is single-writer. Its read path — RangeQuery, Neighbors,
// CountNeighbors, Cells, Len, Geometry — performs no mutation of any kind
// (no lazy cell creation, no rebalancing), so any number of goroutines
// may read concurrently provided no Insert/Remove overlaps with them.
package grid
