package archive

import "streamsum/internal/segstore"

// columns is a FIFO run of memory-tier entries with their filter-phase
// features in segstore.Columns beside them, so a gated search is one
// sequential pass over contiguous memory instead of a pointer chase per
// entry: row i is ents[i], and its id (ascending), MBR and feature
// vector are the Columns' row i.
//
// A columns value handed to a snapshot or a demotion batch is capped at
// its length (see slice), and the writer only ever appends past the end
// of the arrays it owns or copies into fresh ones, so a published run is
// never written again and readers need no lock.
type columns struct {
	segstore.Columns
	ents []*Entry
}

// push appends one entry's row.
func (c *columns) push(e *Entry) {
	c.Push(e.ID, e.MBR, e.Features.Vector())
	c.ents = append(c.ents, e)
}

// slice returns rows [i:j) sharing the backing arrays, capped at j so an
// append through the result can never reach a row the owner may write.
func (c *columns) slice(i, j int) columns {
	return columns{Columns: c.Slice(i, j), ents: c.ents[i:j:j]}
}

// cloneColumns copies the given runs, in order, into fresh arrays.
func cloneColumns(dim int, runs ...columns) columns {
	n := 0
	for _, r := range runs {
		n += r.Len()
	}
	c := columns{Columns: segstore.MakeColumns(dim, n), ents: make([]*Entry, 0, n)}
	for _, r := range runs {
		c.Append(&r.Columns)
		c.ents = append(c.ents, r.ents...)
	}
	return c
}
