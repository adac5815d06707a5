package stream

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"streamsum/internal/core"
	"streamsum/internal/geom"
)

// Tuple is one stream element.
type Tuple struct {
	TS int64
	P  geom.Point
}

// Source yields tuples in arrival order.
type Source interface {
	// Next returns the next tuple, or ok=false at end of stream.
	Next() (t Tuple, ok bool)
}

// Processor is the streaming clustering interface implemented by both the
// C-SGS extractor (internal/core) and the Extra-N baseline
// (internal/extran).
type Processor interface {
	Push(p geom.Point, ts int64) (id int64, emitted []*core.WindowResult, err error)
	Flush() *core.WindowResult
}

// BatchProcessor is a Processor that can additionally ingest whole slide
// batches with semantics identical to pushing the tuples one by one. Both
// extractors implement it: C-SGS through its two-phase pipeline (parallel
// read-only neighbor discovery, sequential state update), Extra-N as a
// Push loop.
type BatchProcessor interface {
	Processor
	PushBatch(pts []geom.Point, tss []int64) ([]*core.WindowResult, error)
}

// sliceSource iterates over in-memory points.
type sliceSource struct {
	pts []geom.Point
	tss []int64
	i   int
}

// FromSlice returns a Source over the given points; tss may be nil for
// count-based streams.
func FromSlice(pts []geom.Point, tss []int64) Source {
	return &sliceSource{pts: pts, tss: tss}
}

func (s *sliceSource) Next() (Tuple, bool) {
	if s.i >= len(s.pts) {
		return Tuple{}, false
	}
	t := Tuple{P: s.pts[s.i]}
	if s.tss != nil {
		t.TS = s.tss[s.i]
	}
	s.i++
	return t, true
}

// csvSource reads tuples from CSV rows.
type csvSource struct {
	r       *csv.Reader
	valCols []int
	tsCol   int
	row     int64
	err     error
}

// FromCSV returns a Source reading one tuple per CSV record. valCols are
// the 0-based columns holding the point coordinates; tsCol is the column
// holding an integer timestamp, or -1 to use the row number. A parse error
// ends the stream and is reported by Err.
func FromCSV(r io.Reader, valCols []int, tsCol int) *CSVSource {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	return &CSVSource{csvSource{r: cr, valCols: valCols, tsCol: tsCol}}
}

// CSVSource is a Source over CSV data; check Err after draining.
type CSVSource struct{ csvSource }

// Next implements Source.
func (s *CSVSource) Next() (Tuple, bool) {
	if s.err != nil {
		return Tuple{}, false
	}
	rec, err := s.r.Read()
	if err == io.EOF {
		return Tuple{}, false
	}
	if err != nil {
		s.err = err
		return Tuple{}, false
	}
	p := make(geom.Point, len(s.valCols))
	for i, c := range s.valCols {
		if c >= len(rec) {
			s.err = fmt.Errorf("stream: row %d has %d columns, need %d", s.row, len(rec), c+1)
			return Tuple{}, false
		}
		v, err := strconv.ParseFloat(rec[c], 64)
		if err != nil {
			s.err = fmt.Errorf("stream: row %d col %d: %v", s.row, c, err)
			return Tuple{}, false
		}
		p[i] = v
	}
	t := Tuple{P: p, TS: s.row}
	if s.tsCol >= 0 {
		if s.tsCol >= len(rec) {
			s.err = fmt.Errorf("stream: row %d missing ts column %d", s.row, s.tsCol)
			return Tuple{}, false
		}
		ts, err := strconv.ParseInt(rec[s.tsCol], 10, 64)
		if err != nil {
			s.err = fmt.Errorf("stream: row %d ts: %v", s.row, err)
			return Tuple{}, false
		}
		t.TS = ts
	}
	s.row++
	return t, true
}

// Err returns the first error encountered while reading, if any.
func (s *CSVSource) Err() error { return s.err }
