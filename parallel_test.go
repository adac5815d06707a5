package streamsum

import (
	"encoding/json"
	"testing"

	"streamsum/internal/core"
	"streamsum/internal/extran"
	"streamsum/internal/gen"
	"streamsum/internal/stream"
)

// Both extractors must stay batch-capable: the facade's PushBatch
// dispatches through this interface.
var (
	_ stream.BatchProcessor = (*core.Extractor)(nil)
	_ stream.BatchProcessor = (*extran.Extractor)(nil)
)

// TestEnginePushBatchMatchesPush is the facade-level determinism
// guarantee of the batched ingest path: Engine.PushBatch with parallel
// neighbor discovery must produce byte-identical WindowResults — members,
// cores, and summaries — to tuple-by-tuple Engine.Push on a fixed-seed
// stream, and archive the same pattern base. Run under -race this also
// exercises the discovery worker pool.
func TestEnginePushBatchMatchesPush(t *testing.T) {
	data := gen.STT(gen.STTConfig{Seed: 2011}, 6000)
	opts := Options{
		Dim: 4, ThetaR: 1.2, ThetaC: 6, Win: 2000, Slide: 500,
		Archive: &ArchiveOptions{},
	}

	seqEng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var seq []*WindowResult
	for i, p := range data.Points {
		ws, err := seqEng.Push(p, data.TS[i])
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, ws...)
	}

	for _, workers := range []int{1, 4} {
		bo := opts
		bo.Parallelism = workers
		batEng, err := New(bo)
		if err != nil {
			t.Fatal(err)
		}
		var bat []*WindowResult
		const batch = 500
		for lo := 0; lo < len(data.Points); lo += batch {
			hi := lo + batch
			if hi > len(data.Points) {
				hi = len(data.Points)
			}
			ws, err := batEng.PushBatch(data.Points[lo:hi], data.TS[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			bat = append(bat, ws...)
		}

		sb, err := json.Marshal(seq)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := json.Marshal(bat)
		if err != nil {
			t.Fatal(err)
		}
		if string(sb) != string(bb) {
			t.Errorf("workers=%d: PushBatch windows differ from Push", workers)
		}
		if got, want := batEng.PatternBase().Len(), seqEng.PatternBase().Len(); got != want {
			t.Errorf("workers=%d: archived %d summaries, want %d", workers, got, want)
		}
	}
}

// TestEngineParallelismMatchesSequential is the facade-level determinism
// guarantee of the parallel output stage: for Parallelism in {1, 2, 8}
// the emitted windows must be byte-identical to the fully sequential
// stage, for both the C-SGS and the Extra-N (FullOnly) engine. Run under
// -race this also exercises the output-stage fan-out.
func TestEngineParallelismMatchesSequential(t *testing.T) {
	data := gen.STT(gen.STTConfig{Seed: 2011}, 6000)
	for _, fullOnly := range []bool{false, true} {
		opts := Options{
			Dim: 4, ThetaR: 1.2, ThetaC: 6, Win: 2000, Slide: 500,
			FullOnly: fullOnly, Parallelism: 1,
		}
		run := func(o Options) []byte {
			eng, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			var out []*WindowResult
			for i, p := range data.Points {
				ws, err := eng.Push(p, data.TS[i])
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ws...)
			}
			w, err := eng.Flush()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, w)
			b, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		want := run(opts)
		for _, p := range []int{1, 2, 8} {
			o := opts
			o.Parallelism = p
			if got := run(o); string(got) != string(want) {
				t.Errorf("fullOnly=%v parallelism=%d: output differs from sequential emit", fullOnly, p)
			}
		}
	}
}

// TestEnginePushBatchFullOnly covers the Extra-N (FullOnly) engine through
// the same facade path.
func TestEnginePushBatchFullOnly(t *testing.T) {
	data := gen.STT(gen.STTConfig{Seed: 7}, 4000)
	opts := Options{
		Dim: 4, ThetaR: 1.2, ThetaC: 6, Win: 1500, Slide: 500,
		FullOnly: true, Parallelism: 4,
	}
	seqEng, err := New(Options{Dim: 4, ThetaR: 1.2, ThetaC: 6, Win: 1500, Slide: 500, FullOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var seq []*WindowResult
	for i, p := range data.Points {
		ws, err := seqEng.Push(p, data.TS[i])
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, ws...)
	}
	batEng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := batEng.PushBatch(data.Points, data.TS)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := json.Marshal(seq)
	bb, _ := json.Marshal(bat)
	if string(sb) != string(bb) {
		t.Error("FullOnly PushBatch windows differ from Push")
	}
}
