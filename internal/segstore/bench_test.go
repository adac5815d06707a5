package segstore

import (
	"path/filepath"
	"testing"
)

// BenchmarkFlushSegment measures one demotion flush: writing a segment
// of 64 summaries (records + footer + trailer, fsynced) and committing
// the manifest. This is the disk cost a store-backed archiver pays per
// demotion batch, amortized over the Puts that filled the batch.
func BenchmarkFlushSegment(b *testing.B) {
	proto := makeEntries(b, 64, 7, 0)
	bytes := 0
	for _, e := range proto {
		bytes += len(e.Blob)
	}
	st, err := Open(b.TempDir(), Options{Dim: 2, NoBackgroundCompaction: true, TargetSegmentBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries := make([]FlushEntry, len(proto))
		for j, e := range proto {
			e.ID = int64(i*len(proto) + j) // ids are globally unique in a store
			entries[j] = e
		}
		if err := st.Flush(entries); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes*b.N)/b.Elapsed().Seconds()/(1<<20), "MB/sec")
}

// BenchmarkScanSegment measures the gated feature scan over one
// segment — the per-segment cost of the disk tier's filter phase, a
// linear scan of the feature column decoded at open (the mapping serves
// blob loads only). The gate rejects everything, so allocs/op pins the
// zero-allocation property of the scan itself. The sub-benchmark keeps
// its "v3" name so recorded baselines still line up.
func BenchmarkScanSegment(b *testing.B) {
	entries := makeEntries(b, 256, 7, 0)
	b.Run("v3", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "scan"+segSuffix)
		if err := writeSegment(path, 2, entries); err != nil {
			b.Fatal(err)
		}
		seg, err := OpenSegment(path)
		if err != nil {
			b.Fatal(err)
		}
		defer seg.close()
		lo := [4]float64{0, 0, 0, 0}
		hi := [4]float64{1e9, 1e9, 1e9, 1e9}
		gate := func([4]float64) bool { return false }
		visit := func(Record) bool { return true }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if seg.GatedSearchFeatures(lo, hi, gate, visit) != len(entries) {
				b.Fatal("scan missed records")
			}
		}
	})
}

// BenchmarkOpenSegment measures one open of a 256-record segment:
// validation, the columnar-region CRC and the one decode of the columns,
// on the mmap and pread read paths.
func BenchmarkOpenSegment(b *testing.B) {
	path := filepath.Join(b.TempDir(), "open"+segSuffix)
	if err := writeSegment(path, 2, makeEntries(b, 256, 7, 0)); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"mmap", true}, {"pread", false}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := SetMmapEnabled(mode.on)
			defer SetMmapEnabled(prev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seg, err := OpenSegment(path)
				if err != nil {
					b.Fatal(err)
				}
				seg.close()
			}
		})
	}
}

// BenchmarkLoadRecord measures one refine-phase summary load from a
// segment, mmap (zero-copy decode) vs pread (pooled scratch buffer).
func BenchmarkLoadRecord(b *testing.B) {
	entries := makeEntries(b, 64, 7, 0)
	path := filepath.Join(b.TempDir(), "load"+segSuffix)
	if err := writeSegment(path, 2, entries); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"mmap", true}, {"pread", false}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := SetMmapEnabled(mode.on)
			defer SetMmapEnabled(prev)
			seg, err := OpenSegment(path)
			if err != nil {
				b.Fatal(err)
			}
			defer seg.close()
			if seg.Mapped() != mode.on {
				b.Skipf("mmap availability mismatch (mapped=%v)", seg.Mapped())
			}
			recs := seg.Records()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := seg.Load(recs[i%len(recs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
