// Package regen synthesizes an approximate full representation from a
// Skeletal Grid Summarization — the "full representation re-generation
// technique based on pattern summarizations" that §1 of the paper names as
// a direct application of SGS.
//
// Because an SGS records the exact population of every (non-overlapping)
// cell, regeneration can conserve both the total population and the
// density distribution at cell granularity: it scatters each cell's
// population uniformly inside that cell. By Lemma 4.3 every generated
// point is within θr of a true member of the original cluster, and
// re-summarizing the generated points under the same geometry reproduces
// the cell set and populations of the source summary exactly (tested).
//
// Uses: visualizing archived clusters whose raw members were discarded,
// approximating distance computations that need point sets (e.g. feeding
// archived history to point-based tooling), and generating test fixtures.
package regen

import (
	"math/rand"

	"streamsum/internal/geom"
	"streamsum/internal/sgs"
)

// Options tunes regeneration.
type Options struct {
	// MaxPerCell caps points per cell (0 = no cap). Capping produces a
	// lighter sketch whose per-cell densities remain proportional.
	MaxPerCell int
	// Seed makes generation reproducible; the default (0) derives a seed
	// from the summary id so repeated calls agree.
	Seed int64
}

// Points synthesizes member positions from the summary.
func Points(s *sgs.Summary, opts Options) []geom.Point {
	if s == nil || s.NumCells() == 0 {
		return nil
	}
	seed := opts.Seed
	if seed == 0 {
		seed = s.ID*0x9E3779B9 + s.Window + 1
	}
	rng := rand.New(rand.NewSource(seed))
	var out []geom.Point
	for i := range s.Cells {
		c := &s.Cells[i]
		n := int(c.Population)
		if opts.MaxPerCell > 0 && n > opts.MaxPerCell {
			n = opts.MaxPerCell
		}
		min := s.CellMin(c.Coord)
		for k := 0; k < n; k++ {
			p := make(geom.Point, s.Dim)
			for d := 0; d < s.Dim; d++ {
				// Rounded on its own, so arm64 does not fuse it (see gen).
				p[d] = min[d] + float64(rng.Float64()*s.Side)
			}
			out = append(out, p)
		}
	}
	return out
}

// Centers returns one representative point per cell (the cell center),
// weighted implicitly by nothing — a minimal sketch for plotting.
func Centers(s *sgs.Summary) []geom.Point {
	var out []geom.Point
	for i := range s.Cells {
		min := s.CellMin(s.Cells[i].Coord)
		c := min.Clone()
		for d := range c {
			c[d] += float64(s.Side / 2)
		}
		out = append(out, c)
	}
	return out
}
