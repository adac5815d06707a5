package main

import (
	"streamsum"
	"streamsum/internal/gen"
)

// nominalSeconds is the run length the sizes below are calibrated for (and
// BENCHMARK.json's run_seconds): on the 2-core reference container the
// timed phases of one run add up to about this long. --seconds scales every
// operation count linearly from here, so a run's size is a pure function of
// its arguments and identical on every commit.
const nominalSeconds = 20

// episodes is how many times a run sets its workload up and runs it, each
// time on another seed derived from --seed, splitting the operation counts
// below evenly. The driver bounds how far a metric may move from seed to
// seed, and one draw of a stream (which convoys, which markets) moves the
// cost of a run by 10-20%; pooling four draws halves that. It also makes
// setup_s the median of four set-ups.
const episodes = 4

// A phase is one timed section of a workload. Ingest phases push slides
// (each PushBatch closes exactly one window); analyst phases issue matching
// queries one after another.
type phase struct {
	// slides > 0 makes this an ingest phase of that many timed slides.
	slides int
	// monitored registers the workload's standing subscriptions for the
	// length of the phase; alert_* is measured here.
	monitored bool
	// rate > 0 issues slides open loop at that many per second, timed from
	// the moment each was due; 0 is a closed loop.
	rate float64
	// analyst runs a closed-loop analyst beside an ingest phase until it
	// ends (the query count is then whatever fits).
	analyst bool
	// queries > 0 makes this an analyst phase of that many timed queries.
	queries int
}

// A workload is one row of the sizes table: the stream, the engine
// configuration, the untimed set-up and the timed phases.
type workload struct {
	name string
	why  string

	stream func(seed int64, n int) gen.Batch
	// options returns the engine configuration; storeDir is a fresh
	// directory for workloads that tier to disk.
	options func(storeDir string) streamsum.Options
	disk    bool

	warm    int // untimed slides that fill the first window
	prefill int // further untimed closed-loop slides (history before timing starts)

	subs         int     // standing subscriptions of a monitored phase, each over a set-up summary of its own
	subThreshold float64 // fixed so that 2%-30% of refined pairs become events
	subSensitive bool    // the subscriptions also compare location

	// querySelectivity is the share of the history that passes the
	// cluster-feature gate of a query and is refined; each query's
	// threshold is chosen to give it (queryPlan.thresholdFor).
	querySelectivity float64
	archivedTargets  int     // query targets drawn from the archived history
	heldOutShare     float64 // share of queries whose target was never archived

	phases []phase
	// fixture, if set, is a second small workload run in the same process
	// after the phases: the probe that supplies the end-to-end metrics this
	// workload's own phases do not produce, so that every metric is
	// defined on every workload. It runs on an engine of its own and the
	// layer pass skips it, so it changes nothing the phases measure.
	fixture *workload

	// parallelReplay adds the layer pass's short GOMAXPROCS(1)-vs-default
	// replay of the ingest path (core.parallel_ratio).
	parallelReplay bool
}

// What every workload's queries and checks share.
const (
	queryLimit     = 5   // every query asks for the closest five
	sensitiveShare = 0.2 // share of queries that also compare location

	checkWindowEvery = 50 // check (a): every n-th emitted window of an episode against DBSCAN
	checkAlertEvery  = 25 // check (d): every n-th monitored window against brute force
)

// GMTI runs with 128 convoys over a 400 km region, not the generator's
// default 8 over 100 km: a run's cost then averages over enough independent
// convoys that it barely depends on which seed drew them, which is what lets
// the end-to-end metrics carry regression bounds across seeds.
func gmtiStream(seed int64, n int) gen.Batch {
	return gen.GMTI(gen.GMTIConfig{Seed: seed, Convoys: 128, Region: 400}, n)
}

// sttStream interleaves sttMarkets independent gen.STT streams, tuple by
// tuple, each shifted along the price axis so far (>> theta_r) that their
// trades never neighbour one another: one feed carrying several markets.
// Like the convoys above, this is for steadiness across seeds: a single STT
// stream holds about a dozen clusters per window with heavy-tailed sizes,
// and which ones a seed draws moved bytes_per_cluster by +-20%.
const sttMarkets = 4

func sttStream(seed int64, n int) gen.Batch {
	per := (n + sttMarkets - 1) / sttMarkets
	markets := make([]gen.Batch, sttMarkets)
	for k := range markets {
		markets[k] = gen.STT(gen.STTConfig{Seed: seed*sttMarkets + int64(k)}, per)
		for _, p := range markets[k].Points {
			p[1] += 2 * float64(k)
		}
	}
	out := gen.Batch{Points: make([]streamsum.Point, 0, n)}
	for i := 0; len(out.Points) < n; i++ {
		out.Points = append(out.Points, markets[i%sttMarkets].Points[i/sttMarkets])
	}
	return out
}

// gmtiOptions is the GMTI engine. The archive keeps clusters of at least 15
// objects and, with sampleRate > 0, that share of those (the paper's
// selective archiving, 6.2): a fifth of the ~100 clusters a window holds
// hands the standing queries ~20 new entries per window and lets a history
// that is never evicted grow at a rate a short episode can still query.
func gmtiOptions(archive streamsum.ArchiveOptions, sampleRate float64) streamsum.Options {
	archive.MinPopulation = 15
	archive.SampleRate = sampleRate
	archive.Seed = 1 // of the archive's own sampling, not of the inputs
	return streamsum.Options{
		Dim: 2, ThetaR: 1.2, ThetaC: 6, Win: 4000, Slide: 1000,
		Archive: &archive,
	}
}

// probeFixture is the probe of the workloads that lack a write path or a
// read path of their own: a small GMTI engine with a RAM history that pushes
// the given number of monitored slides (ingest_*, window_*, alert_*) and
// then asks the given number of queries (match_*). Its numbers are canaries:
// they say the build still ingests, matches and alerts at the usual cost.
//
// ingest_stt probes here and not on its own engine because matching cost
// over STT summaries swings by +-40% from seed to seed (a dozen clusters per
// window with heavy-tailed sizes), far outside any usable regression bound.
func probeFixture(slides, queries int) *workload {
	w := &workload{
		name:   "probe_fixture",
		stream: gmtiStream,
		options: func(string) streamsum.Options {
			return gmtiOptions(streamsum.ArchiveOptions{Capacity: 256}, 0)
		},
		warm: 4, prefill: 8,
		// Position-sensitive subscriptions refine only the entries that
		// overlap their target, at one alignment: cheap enough that 64 of
		// them fit beside a window's ~100 new entries, and many enough that
		// the number of alerts does not hinge on which targets a seed drew.
		subs: 64, subThreshold: 0.9, subSensitive: true,
		querySelectivity: 1, archivedTargets: 512, heldOutShare: 0.25,
	}
	if slides > 0 {
		w.phases = append(w.phases, phase{slides: slides, monitored: true})
	}
	if queries > 0 {
		w.phases = append(w.phases, phase{queries: queries})
	}
	return w
}

// workloads is the one sizes table. Counts are those of a whole run at
// nominalSeconds; each of its episodes does an equal share of them.
var workloads = []*workload{
	{
		name:   "ingest_stt",
		why:    "extraction does all the work (STT dim 4, the paper's 8.1 case-2 shape) and the read path none: where ingest changes must show, and the no-change control for match, store and subscription changes",
		stream: sttStream,
		options: func(string) streamsum.Options {
			return streamsum.Options{
				Dim: 4, ThetaR: 0.10, ThetaC: 8, Win: 10000, Slide: 1000,
				Archive: &streamsum.ArchiveOptions{Capacity: 2048},
			}
		},
		warm:           10,
		phases:         []phase{{slides: 520}},
		fixture:        probeFixture(160, 400),
		parallelReplay: true,
	},
	{
		name:   "match_ram",
		why:    "one-shot queries at 10% selectivity over a RAM history of 2048 GMTI summaries: the refine kernel does nearly all the work, disk and decode none; a kernel change must show here, a disk-tier change not",
		stream: gmtiStream,
		options: func(string) streamsum.Options {
			return gmtiOptions(streamsum.ArchiveOptions{Capacity: 2048}, 0)
		},
		warm: 4, prefill: 26,
		querySelectivity: 0.1, archivedTargets: 512, heldOutShare: 0.25,
		phases:  []phase{{queries: 1500}},
		fixture: probeFixture(400, 0),
	},
	{
		name:   "alerts_sub",
		why:    "64 standing queries meet each window's ~20 new entries: the refine kernel used inverted (many targets x few entries) outweighs extraction; one-shot-only tuning or a dropped subscription index shows",
		stream: gmtiStream,
		options: func(string) streamsum.Options {
			return gmtiOptions(streamsum.ArchiveOptions{Capacity: 2048}, 0.2)
		},
		warm: 4, prefill: 8,
		subs: 64, subThreshold: 0.5,
		phases:  []phase{{slides: 360, monitored: true}},
		fixture: probeFixture(0, 400),
	},
	{
		name:   "mixed_disk",
		why:    "open-loop ingest at 10 slides/s beside a closed-loop analyst over a two-tier history larger than the cache: demotion, compaction, scans, decode under live queries; a query gain that costs ingest shows",
		stream: gmtiStream,
		options: func(storeDir string) streamsum.Options {
			o := gmtiOptions(streamsum.ArchiveOptions{}, 0.2)
			o.StorePath = storeDir
			o.StoreMaxMemBytes = 192 << 10
			o.SummaryCacheBytes = 128 << 10
			return o
		},
		disk: true,
		warm: 4, prefill: 60,
		subs: 16, subThreshold: 0.6,
		querySelectivity: 0.2, archivedTargets: 256,
		phases: []phase{
			{slides: 200, monitored: true, rate: 10, analyst: true},
		},
	},
}

// subWeights is the metric of the workload's subscriptions (nil: the
// default, position-insensitive).
func (w *workload) subWeights() *streamsum.Weights {
	if w.subSensitive {
		return positionSensitive
	}
	return nil
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns a copy of the workload with every timed operation count
// multiplied by seconds/nominalSeconds (at least one operation each).
func (w *workload) scaled(seconds float64) *workload {
	c := *w
	c.phases = make([]phase, len(w.phases))
	f := seconds / nominalSeconds
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(1, int(float64(n)*f+0.5))
	}
	for i, p := range w.phases {
		p.slides = scale(p.slides)
		p.queries = scale(p.queries)
		c.phases[i] = p
	}
	if w.fixture != nil {
		c.fixture = w.fixture.scaled(seconds)
	}
	return &c
}

// withoutFixture drops the probe (the layer pass and its untraced reference
// run cover the workload's own phases only).
func (w *workload) withoutFixture() *workload {
	c := *w
	c.fixture = nil
	return &c
}

// ingestSlides is the number of slides the workload pushes in all, set-up
// included.
func (w *workload) ingestSlides() int {
	n := w.warm + w.prefill
	for _, p := range w.phases {
		n += p.slides
	}
	return n
}

// A metric is one named quantity of the benchmark's output.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd lists what a user of the system waits or pays for. Every
// workload reports every one of them; which phase feeds which metric is in
// README.md. failed_share is not in this list because it is 0 on every
// valid run: the output carries it as attempted and failed.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ingest_tuples_per_s", "tuples/s", "higher"},
	{"window_p50_ms", "ms", "lower"},
	{"window_p95_ms", "ms", "lower"},
	{"match_p50_ms", "ms", "lower"},
	{"match_p95_ms", "ms", "lower"},
	{"match_queries_per_s", "1/s", "higher"},
	{"alert_p50_ms", "ms", "lower"},
	{"alert_p95_ms", "ms", "lower"},
	{"bytes_per_cluster", "B", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer lists the layer pass's metrics, layer = module name. A layer
// that does no work on a workload reports 0.
var perLayer = []metric{
	{"core.pushbatch_us_per_tuple", "us", "lower"},
	{"core.busy_s", "s", "lower"},
	{"core.allocs_per_tuple", "count", "lower"},
	{"core.windows", "count", "higher"},
	{"core.clusters_per_window", "count", "higher"},
	{"core.cells_live", "count", "lower"},
	{"core.parallel_ratio", "ratio", "higher"},
	{"archive.putbatch_us_per_entry", "us", "lower"},
	{"archive.resolve_us_per_window", "us", "lower"},
	{"archive.snapshot_us", "us", "lower"},
	{"archive.busy_s", "s", "lower"},
	{"archive.entries", "count", "higher"},
	{"archive.mem_bytes", "B", "lower"},
	{"sgs.marshal_ns_per_summary", "ns", "lower"},
	{"sgs.unmarshal_ns_per_summary", "ns", "lower"},
	{"sgs.unmarshal_allocs_per_summary", "count", "lower"},
	{"sgs.cells_per_summary", "count", "lower"},
	{"sgs.bytes_per_summary", "B", "lower"},
	{"match.run_us_per_query", "us", "lower"},
	{"match.filter_us_per_query", "us", "lower"},
	{"match.gate_pass_ratio", "ratio", "lower"},
	{"match.refined_pairs_per_query", "count", "lower"},
	{"match.refine_us_per_pair", "us", "lower"},
	{"match.refine_share", "ratio", "lower"},
	{"match.hits_per_query", "count", "higher"},
	{"match.staged_vs_run_ratio", "ratio", "lower"},
	{"match.busy_s", "s", "lower"},
	{"sub.offer_ms_per_window", "ms", "lower"},
	{"sub.pairs_per_window", "count", "lower"},
	{"sub.us_per_pair", "us", "lower"},
	{"sub.event_ratio", "ratio", "higher"},
	{"sub.events", "count", "higher"},
	{"sub.deliver_lag_p95_ms", "ms", "lower"},
	{"sub.busy_s", "s", "lower"},
	{"segstore.scan_ns_per_record", "ns", "lower"},
	{"segstore.load_ns_per_record", "ns", "lower"},
	{"segstore.load_allocs_per_record", "count", "lower"},
	{"segstore.flush_ms_per_segment", "ms", "lower"},
	{"segstore.segments", "count", "lower"},
	{"segstore.compactions", "count", "lower"},
	{"segstore.space_amp", "ratio", "lower"},
	{"sumcache.hit_ratio", "ratio", "higher"},
	{"sumcache.hits", "count", "higher"},
	{"sumcache.misses", "count", "lower"},
	{"sumcache.evictions", "count", "lower"},
	{"facade.overhead_ratio", "ratio", "lower"},
	{"gen.late_p95_ms", "ms", "lower"},
	{"gen.backlog_max_slides", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}
