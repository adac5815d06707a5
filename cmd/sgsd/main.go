// Command sgsd runs a continuous clustering query (the paper's Figure 2)
// over a stream and emits one JSON line per window with the clusters in
// both representations. The stream comes from a CSV file or one of the
// built-in synthetic workloads.
//
// Usage:
//
//	sgsd -query "DETECT DensityBasedClusters f+s FROM s USING theta_range = 0.1 AND theta_cnt = 8 IN WINDOWS WITH win = 10000 AND slide = 1000" \
//	     -source stt -n 50000
//
//	sgsd -query "..." -source csv -csv data.csv -cols 0,1,2,3 -tscol 4
//
// With -store DIR every emitted summary is archived into a pattern base
// persisted as a segment store, the only on-disk form of the stream
// history (inspect it with sgstool). Summaries evicted from memory (cap
// it with -store-mem) demote into immutable on-disk segments that stay
// matchable, so /match queries span the whole stream history while
// resident memory stays bounded. A demoted segment is durable once it
// commits (fsync, then the manifest rename); the memory tier is flushed
// to the store at a clean exit; a crash loses at most the memory tier
// (plus the few demotion batches not yet committed), which -store-mem
// bounds. Restarting over the same DIR resumes the history, with
// archive ids continuing past it.
//
// With -batch N (N = the query's slide is a good choice), tuples are fed
// through the engine's batched ingest path. -parallelism P bounds every
// fan-out inside the engine (batched neighbor discovery, the output
// stage, matching, subscription evaluation); output is identical to
// unbatched, sequential operation at every setting.
//
// With -http ADDR, sgsd serves cluster matching queries over HTTP while
// the stream is still being ingested — the pattern base is
// snapshot-isolated, so analyst queries never stall archiving:
//
//	GET /match?q=GIVEN+DensityBasedCluster+3+SELECT+...   (target = archive id)
//	GET /subscribe?q=GIVEN+DensityBasedCluster+3+SELECT+...+FROM+Stream+...
//	GET /stats
//
// /match runs a one-shot FROM History query. /subscribe registers a
// standing FROM Stream query and holds the connection open, emitting one
// JSON event per matching cluster as windows are archived (NDJSON by
// default, Server-Sent Events with "Accept: text/event-stream"; add
// &track=1 for cluster evolution events on the same stream);
// evaluation is inverted and incremental, so each live subscription
// costs one probe of the window's new clusters, not a history scan. Error hygiene: a
// malformed query is a 400 carrying the parse error, an unknown archive
// id is a 404.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamsum"
	"streamsum/internal/gen"
	"streamsum/internal/geom"
	"streamsum/internal/obs"
	"streamsum/internal/sgs"
	"streamsum/internal/stream"
	"streamsum/internal/trace"
)

type cellJSON struct {
	Loc        []int32 `json:"loc"`
	Population uint32  `json:"pop"`
	Core       bool    `json:"core"`
	Conns      int     `json:"conns"`
}

type clusterJSON struct {
	ID      int64      `json:"id"`
	Size    int        `json:"size"`
	Cores   int        `json:"cores"`
	Members []int64    `json:"members,omitempty"`
	Cells   []cellJSON `json:"sgs,omitempty"`
}

type windowJSON struct {
	Window   int64         `json:"window"`
	Clusters []clusterJSON `json:"clusters"`
}

func main() {
	queryStr := flag.String("query", "", "DETECT query (Figure 2 syntax); required")
	source := flag.String("source", "stt", "stream source: stt, gmti or csv")
	n := flag.Int("n", 50000, "tuples to generate (stt/gmti sources)")
	seed := flag.Int64("seed", 1, "generator seed")
	csvPath := flag.String("csv", "", "CSV file (csv source)")
	cols := flag.String("cols", "0,1", "coordinate columns (csv source)")
	tsCol := flag.Int("tscol", -1, "timestamp column, -1 = row number (csv source)")
	members := flag.Bool("members", false, "include member ids in output")
	parallelism := flag.Int("parallelism", 0, "goroutines for every fan-out inside the engine: batched neighbor discovery, output-stage summary construction, /match filter and refine, /subscribe evaluation (0 = one per CPU, 1 = sequential); windows, match results and events are byte-identical at every setting")
	batch := flag.Int("batch", 0, "ingest batch size; 0 pushes tuple-by-tuple, otherwise tuples are fed through PushBatch in batches of this size (the query's slide is a good value)")
	httpAddr := flag.String("http", "", "serve matching queries over HTTP on this address (e.g. :8080) concurrently with ingestion; implies archiving")
	storePath := flag.String("store", "", "archive every summary into a pattern base persisted as a segment store under this directory (the only on-disk form; inspect with sgstool). Evicted summaries demote into on-disk segments that stay matchable; the memory tier is flushed to the store on clean exit, and a restart over the same directory resumes the history")
	storeMem := flag.Int("store-mem", 0, "memory-tier byte budget for the pattern base (requires -store), counted in encoded summary bytes; resident heap is roughly 30 times it (a GMTI summary takes about 27 heap bytes per encoded byte in memory). Overflow demotes the oldest summaries to disk, and it bounds what a crash can lose. 0 = no byte bound: nothing reaches disk before a clean exit; negative is an error")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ on the -http server")
	slowQuery := flag.Duration("slow-query", 0, "log any /match query or standing-query window evaluation whose wall time meets this threshold, with a per-phase breakdown (e.g. 50ms); 0 = off")
	logFormat := flag.String("log-format", "text", "structured log format: text or json (logs go to stderr)")
	traceCap := flag.Int("trace", 32, "flight-recorder capacity: completed traces retained per pipeline category, browsable at /debug/traces on the -http server; 0 disables recording (span tracing on the hot paths then costs nothing)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `sgsd runs a continuous clustering query (the paper's Figure 2) over a
stream and emits one JSON line per window with the clusters in both
representations (full member list and Skeletal Grid Summarization).

The stream comes from a built-in synthetic workload (-source stt or gmti)
or a CSV file (-source csv with -csv, -cols, -tscol).

With -store DIR every emitted summary is archived and the pattern base
persists as a segment store in DIR, its only on-disk form (inspect it
with sgstool list, stats, show, match or inspect). Summaries evicted
from the in-memory tier (bounded by -store-mem bytes) demote into
on-disk segments that remain fully matchable, so the archived history
outgrows RAM while /match latency and resident memory stay flat.
Crash semantics:
  - a demoted segment is durable once it commits (fsync, then the
    manifest rename);
  - the memory tier is flushed to the store at a clean exit;
  - a crash loses at most the memory tier (plus the few demotion
    batches not yet committed), which -store-mem bounds; with
    -store-mem 0 nothing reaches disk before a clean exit.
Restarting sgsd over the same DIR resumes the history; archive ids
continue past it. One process at a time may hold DIR.

With -http ADDR sgsd additionally serves cluster matching queries (the
paper's Figure 3 syntax, GIVEN target = an archive id) over HTTP while
ingesting — the pattern base is snapshot-isolated, so analyst traffic
never stalls the stream:

  curl 'localhost:8080/match?q=GIVEN+DensityBasedCluster+3+SELECT+DensityBasedClusters+FROM+History+WHERE+Distance+<=+0.2'

Performance knobs: -batch N feeds tuples through the batched ingest path
(N = the query's slide amortizes best), and -parallelism P bounds every
fan-out inside the engine (batched neighbor discovery, per-cluster
summary construction, /match filter and refine, /subscribe evaluation).
It defaults to one goroutine per CPU and never changes the output:
windows, match results and events are byte-identical to sequential
operation.

Example:

  sgsd -query "DETECT DensityBasedClusters f+s FROM s USING theta_range = 0.1 AND theta_cnt = 8 IN WINDOWS WITH win = 10000 AND slide = 1000" \
       -source stt -n 50000 -batch 1000 -parallelism 4 -http :8080

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()

	baseLogger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgsd: %v\n", err)
		os.Exit(2)
	}
	logger := baseLogger.With("component", "sgsd")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	trace.Default.SetCapacity(*traceCap)

	if *queryStr == "" {
		fatal("-query is required")
	}

	var src stream.Source
	var dim int
	switch *source {
	case "stt":
		b := gen.STT(gen.STTConfig{Seed: *seed}, *n)
		src = stream.FromSlice(b.Points, b.TS)
		dim = 4
	case "gmti":
		b := gen.GMTI(gen.GMTIConfig{Seed: *seed}, *n)
		src = stream.FromSlice(b.Points, b.TS)
		dim = 2
	case "csv":
		if *csvPath == "" {
			fatal("csv source requires -csv")
		}
		var colIdx []int
		for _, c := range strings.Split(*cols, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil {
				fatal("bad -cols", "err", err)
			}
			colIdx = append(colIdx, v)
		}
		f, err := os.Open(*csvPath)
		if err != nil {
			fatal("opening csv source", "err", err)
		}
		defer f.Close()
		src = stream.FromCSV(f, colIdx, *tsCol)
		dim = len(colIdx)
	default:
		fatal("unknown source", "source", *source)
	}

	opts, err := streamsum.OptionsFromQuery(*queryStr, dim)
	if err != nil {
		fatal("parsing -query", "err", err)
	}
	if *httpAddr != "" || *storePath != "" {
		opts.Archive = &streamsum.ArchiveOptions{}
	}
	opts.Parallelism = *parallelism
	opts.StorePath = *storePath
	opts.StoreMaxMemBytes = *storeMem
	opts.SlowQuery = *slowQuery
	opts.Logger = baseLogger
	eng, err := streamsum.New(opts)
	if err != nil {
		fatal("starting engine", "err", err)
	}

	var srv *http.Server
	// Closed before srv.Shutdown so open /subscribe streams end — an SSE
	// connection never goes idle on its own, and Shutdown waits for idle.
	shutdownCh := make(chan struct{})
	if *httpAddr != "" {
		// The pattern base is snapshot-isolated, so these handlers run
		// concurrently with the ingest loop below without coordination.
		mux := http.NewServeMux()
		mux.HandleFunc("/match", matchHandler(eng, *slowQuery, logger))
		mux.HandleFunc("/subscribe", subscribeHandler(eng, shutdownCh))
		mux.HandleFunc("/stats", statsHandler(eng))
		registerEngineGauges(eng)
		registerBuildGauges()
		mux.HandleFunc("/metrics", metricsHandler())
		mux.HandleFunc("/debug/traces", tracesHandler())
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal("binding -http listener", "addr", *httpAddr, "err", err)
		}
		srv = newHTTPServer(mux)
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fatal("http server failed", "err", err)
			}
		}()
		logger.Info("serving matching queries", "addr", ln.Addr().String())
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)

	emit := func(w *streamsum.WindowResult) {
		wj := windowJSON{Window: w.Window, Clusters: make([]clusterJSON, 0, len(w.Clusters))}
		for _, c := range w.Clusters {
			cj := clusterJSON{ID: c.ID, Size: len(c.Members), Cores: len(c.Cores)}
			if *members {
				cj.Members = c.Members
			}
			if c.Summary != nil {
				for i := range c.Summary.Cells {
					cell := &c.Summary.Cells[i]
					cj.Cells = append(cj.Cells, cellJSON{
						Loc:        cell.Coord.Slice(),
						Population: cell.Population,
						Core:       cell.Status == sgs.CoreCell,
						Conns:      len(cell.Conns),
					})
				}
			}
			wj.Clusters = append(wj.Clusters, cj)
		}
		if err := enc.Encode(wj); err != nil {
			fatal("writing window output", "err", err)
		}
	}

	tuples := 0
	if *batch > 0 {
		// Batched ingest: accumulate tuples and feed them through the
		// two-phase (parallel discovery + sequential apply) pipeline.
		pts := make([]geom.Point, 0, *batch)
		tss := make([]int64, 0, *batch)
		push := func() {
			if len(pts) == 0 {
				return
			}
			results, err := eng.PushBatch(pts, tss)
			// Windows completed before a mid-batch error are real output
			// (every earlier tuple was fully applied); emit them before
			// failing, exactly as the unbatched loop would have.
			for _, w := range results {
				emit(w)
			}
			if err != nil {
				fatal("batched ingest failed", "err", err)
			}
			tuples += len(pts)
			pts, tss = pts[:0], tss[:0]
		}
		for {
			t, ok := src.Next()
			if !ok {
				break
			}
			pts = append(pts, geom.Point(t.P))
			tss = append(tss, t.TS)
			if len(pts) == *batch {
				push()
			}
		}
		push()
	} else {
		for {
			t, ok := src.Next()
			if !ok {
				break
			}
			results, err := eng.Push(geom.Point(t.P), t.TS)
			if err != nil {
				fatal("ingest failed", "err", err)
			}
			tuples++
			for _, w := range results {
				emit(w)
			}
		}
	}
	if cs, ok := src.(*stream.CSVSource); ok && cs.Err() != nil {
		fatal("reading csv source", "err", cs.Err())
	}
	w, err := eng.Flush()
	if err != nil {
		fatal("flushing final window", "err", err)
	}
	emit(w)

	// Shutdown ordering: drain the HTTP server before touching the
	// pattern base's persistence. A /match in flight at interrupt time
	// holds a snapshot into the base (and, with -store, into its segment
	// files), so the final store flush and teardown must wait until
	// Shutdown has returned — closing first would race the last queries
	// against the final flush. The drain has no deadline (a deadline
	// that fires would re-create exactly that race); a second interrupt
	// force-exits without the final store flush.
	if srv != nil {
		logger.Info("stream complete; still serving matching queries (interrupt to exit)", "tuples", tuples)
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		go func() {
			<-sig
			logger.Warn("second interrupt; exiting without draining or flushing the store")
			os.Exit(1)
		}()
		// End the standing-query streams first: their connections never go
		// idle on their own, and Shutdown's drain waits for idle.
		close(shutdownCh)
		if err := srv.Shutdown(context.Background()); err != nil {
			logger.Warn("http drain failed", "err", err)
		}
	}

	// With -store this demotes the memory tier as one final segment and
	// stops the compactor; the store directory is then a complete record
	// of the archived history.
	if err := eng.Close(); err != nil {
		fatal("closing engine", "err", err)
	}
	if *storePath != "" {
		ts := eng.PatternBase().TierStats()
		logger.Info("store flushed",
			"path", *storePath, "clusters", ts.SegEntries,
			"segments", ts.Segments, "bytes", ts.SegBytes)
	}
}

// newLogger builds the daemon's structured logger: text or JSON handler
// on stderr (stdout carries the window output stream, so logs must not
// share it). Callers tag it per component — the engine's subsystems add
// component=archive / component=sub themselves.
// Connection bounds of the HTTP server: a client gets this long to send
// its request headers, and an idle keep-alive connection is closed after
// this long.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's HTTP server around h. WriteTimeout
// stays 0 (none): /subscribe streams events and /debug/pprof/profile
// streams a profile for as long as the client asks, past any fixed
// bound.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

func newLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
	return slog.New(h), nil
}

type matchRespJSON struct {
	Candidates int             `json:"candidates"`
	Refined    int             `json:"refined"`
	Phases     matchPhasesJSON `json:"phases"`
	Matches    []matchJSON     `json:"matches"`
}

// matchPhasesJSON is the per-query trace summary: phase wall times plus
// the pruning detail that explains them (zone-skipped segments never
// paid a probe; pruned pairs never paid an alignment search). It is
// derived from the query's span tree; Trace is the trace id, retrievable
// at /debug/traces?trace=ID while the flight recorder still holds it.
type matchPhasesJSON struct {
	Trace           string `json:"trace"`
	FilterNS        int64  `json:"filter_ns"`
	RefineNS        int64  `json:"refine_ns"`
	OrderNS         int64  `json:"order_ns"`
	SegmentsProbed  int    `json:"segments_probed"`
	SegmentsSkipped int    `json:"segments_skipped"`
	DiskLoads       int    `json:"disk_loads"`
	Pruned          int    `json:"pruned"`
}

// phasesFromTrace flattens a /match span tree into the response's phase
// summary. Missing spans (a query that errored mid-flight) leave zeros.
func phasesFromTrace(td trace.TraceData) matchPhasesJSON {
	p := matchPhasesJSON{Trace: td.TraceID}
	if sd := td.Span("filter"); sd != nil {
		p.FilterNS = sd.DurNS
		probed, _ := sd.Int("segments_probed")
		skipped, _ := sd.Int("segments_skipped")
		p.SegmentsProbed, p.SegmentsSkipped = int(probed), int(skipped)
	}
	if sd := td.Span("refine"); sd != nil {
		p.RefineNS = sd.DurNS
		loads, _ := sd.Int("disk_loads")
		pruned, _ := sd.Int("pruned")
		p.DiskLoads, p.Pruned = int(loads), int(pruned)
	}
	if sd := td.Span("order"); sd != nil {
		p.OrderNS = sd.DurNS
	}
	return p
}

type matchJSON struct {
	ID       int64   `json:"id"`
	Distance float64 `json:"distance"`
	Window   int64   `json:"window"`
	Cells    int     `json:"cells"`
}

// resolveTarget resolves a query's GIVEN reference as an archive id
// against the live pattern base — the shared preamble of /match and
// /subscribe. On failure it writes the response (400 for a non-integer
// reference, 404 for an unknown id) and reports ok=false.
func resolveTarget(eng *streamsum.Engine, w http.ResponseWriter, ref string) (*streamsum.ArchiveEntry, bool) {
	id, err := strconv.ParseInt(ref, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("target %q must be an archive id", ref), http.StatusBadRequest)
		return nil, false
	}
	e := eng.PatternBase().Get(id)
	if e == nil {
		http.Error(w, fmt.Sprintf("no archived cluster %d", id), http.StatusNotFound)
		return nil, false
	}
	return e, true
}

// startHTTPTrace begins the span trace for one HTTP-driven operation:
// recorded on the flight recorder when it is enabled, standalone (span
// tree still built, nothing retained) otherwise, so the response's phase
// breakdown is always available. An incoming W3C traceparent header
// supplies the trace id, letting callers correlate sgsd's trace with
// their own telemetry.
func startHTTPTrace(r *http.Request, cat trace.Category, name string) *trace.Trace {
	tid, _, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
	if trace.Default.Enabled() {
		return trace.Default.StartID(cat, name, tid)
	}
	return trace.New(cat, name, tid)
}

// matchHandler executes a Figure 3 matching query against the live
// pattern base. The query's GIVEN reference is resolved as an archive
// id, so analysts ask "what looks like cluster 17?" while the stream is
// still running. Like sgstool match, the target's own archived copy is
// excluded from the results rather than consuming LIMIT slots. Every
// response carries the query's phase breakdown (derived from its span
// trace) and a traceparent header echoing the trace id; a query at or
// above the slow threshold (when positive) is additionally logged with
// it.
func matchHandler(eng *streamsum.Engine, slow time.Duration, logger *slog.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query().Get("q")
		if qs == "" {
			http.Error(w, "missing q parameter (a GIVEN ... SELECT ... matching query)", http.StatusBadRequest)
			return
		}
		mo, ref, err := streamsum.MatchOptionsFromQuery(qs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		e, ok := resolveTarget(eng, w, ref)
		if !ok {
			return
		}
		mo.Target = e.Summary
		serveMatch(eng, slow, logger, w, r, mo, e.ID)
	}
}

// serveMatch runs one resolved matching query (mo.Target set; id is the
// target's archive id) and writes the /match response. A query the
// matcher rejects as malformed (streamsum.ErrBadQuery) is the client's
// error, a 400; any other failure is the store's, a 500.
func serveMatch(eng *streamsum.Engine, slow time.Duration, logger *slog.Logger, w http.ResponseWriter, r *http.Request, mo streamsum.MatchOptions, id int64) {
	limit := mo.Limit
	if limit > 0 {
		mo.Limit = limit + 1 // the target itself matches at distance 0
	}
	tr := startHTTPTrace(r, trace.Match, "http.match")
	tr.Root().SetInt("target", id)
	mo.Trace = tr
	start := time.Now()
	ms, stats, err := eng.Match(mo)
	if err != nil {
		tr.Root().SetStr("error", err.Error())
		tr.Finish()
		code := http.StatusInternalServerError
		if errors.Is(err, streamsum.ErrBadQuery) {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	root := tr.Root()
	root.SetInt("candidates", int64(stats.IndexCandidates))
	root.SetInt("matches", int64(len(ms)))
	tid := tr.ID()
	td, _ := tr.Finish()
	phases := phasesFromTrace(td)
	if elapsed := time.Since(start); slow > 0 && elapsed >= slow {
		logger.Warn("slow /match",
			"target", id, "took", elapsed, "threshold", slow,
			"filter", time.Duration(phases.FilterNS),
			"refine", time.Duration(phases.RefineNS),
			"order", time.Duration(phases.OrderNS),
			"segments_probed", phases.SegmentsProbed,
			"segments_skipped", phases.SegmentsSkipped,
			"disk_loads", phases.DiskLoads,
			"candidates", stats.IndexCandidates,
			"refined", stats.Refined,
			"pruned", stats.Pruned,
			"trace", td.TraceID)
	}
	resp := matchRespJSON{
		Candidates: stats.IndexCandidates,
		Refined:    stats.Refined,
		Phases:     phases,
		Matches:    make([]matchJSON, 0, len(ms)),
	}
	for _, m := range ms {
		if m.ID == id {
			continue
		}
		if limit > 0 && len(resp.Matches) == limit {
			break
		}
		resp.Matches = append(resp.Matches, matchJSON{
			ID: m.ID, Distance: m.Distance,
			Window: m.Entry.Summary.Window, Cells: m.Entry.Summary.NumCells(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("traceparent", trace.Traceparent(tid, 1))
	_ = json.NewEncoder(w).Encode(resp)
}

// The /subscribe stream's event shapes, one struct per event type so
// every field a type carries is always present on the wire (ids,
// sequence numbers and distances are all legitimately zero — omitempty
// would erase them for non-Go consumers). The first line of every
// stream is the "subscribed" handshake with the subscription id.
type subHandshakeJSON struct {
	Type  string `json:"type"` // "subscribed"
	SubID int64  `json:"sub"`
}

type subMatchJSON struct {
	Type     string  `json:"type"` // "match"
	SubID    int64   `json:"sub"`
	Seq      uint64  `json:"seq"`
	ID       int64   `json:"id"`
	Distance float64 `json:"distance"`
	Window   int64   `json:"window"`
	Cells    int     `json:"cells"`
}

type subEvolutionJSON struct {
	Type    string  `json:"type"` // "evolution"
	SubID   int64   `json:"sub"`
	Seq     uint64  `json:"seq"`
	Kind    string  `json:"kind"`
	TrackID int64   `json:"track"`
	Preds   []int64 `json:"predecessors,omitempty"`
}

// subscribeHandler registers a standing matching query (Figure 3 with
// FROM Stream, target = archive id) and streams its events until the
// client disconnects or the server shuts down. Events are NDJSON by
// default, SSE frames when the client sends Accept: text/event-stream.
// A malformed or non-standing query is a 400 with the parse error; an
// unknown archive id is a 404.
func subscribeHandler(eng *streamsum.Engine, shutdown <-chan struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query().Get("q")
		if qs == "" {
			http.Error(w, "missing q parameter (a GIVEN ... FROM Stream ... standing query)", http.StatusBadRequest)
			return
		}
		so, ref, err := streamsum.SubscribeOptionsFromQuery(qs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		e, ok := resolveTarget(eng, w, ref)
		if !ok {
			return
		}
		so.Target = e.Summary
		if tv := r.URL.Query().Get("track"); tv != "" {
			track, err := strconv.ParseBool(tv)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad track parameter %q: want a boolean", tv), http.StatusBadRequest)
				return
			}
			so.Track = track
		}
		s, err := eng.Subscribe(so)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer eng.Unsubscribe(s)

		// One trace spans the connection's lifetime: registration through
		// the last delivered event. The flight recorder only sees it once
		// the client disconnects (traces commit at Finish).
		tr := startHTTPTrace(r, trace.SubEval, "http.subscribe")
		tr.Root().SetInt("sub", s.ID())
		delivered := int64(0)
		defer func() {
			tr.Root().SetInt("events", delivered)
			tr.Finish()
		}()

		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("traceparent", trace.Traceparent(tr.ID(), 1))
		emit := func(ev any) bool {
			b, err := json.Marshal(ev)
			if err != nil {
				return false
			}
			if sse {
				_, err = fmt.Fprintf(w, "data: %s\n\n", b)
			} else {
				_, err = fmt.Fprintf(w, "%s\n", b)
			}
			if err != nil {
				return false
			}
			flusher.Flush()
			return true
		}
		if !emit(subHandshakeJSON{Type: "subscribed", SubID: s.ID()}) {
			return
		}
		for {
			select {
			case ev, ok := <-s.Events():
				if !ok {
					return
				}
				var out any
				switch ev.Kind {
				case streamsum.SubMatch:
					out = subMatchJSON{
						Type: "match", SubID: ev.SubID, Seq: ev.Seq,
						ID: ev.EntryID, Distance: ev.Distance,
						Window: ev.Entry.Summary.Window, Cells: ev.Entry.Summary.NumCells(),
					}
				case streamsum.SubEvolution:
					out = subEvolutionJSON{
						Type: "evolution", SubID: ev.SubID, Seq: ev.Seq,
						Kind: ev.Track.Kind.String(), TrackID: ev.Track.TrackID,
						Preds: ev.Track.Predecessors,
					}
				default:
					continue
				}
				if !emit(out) {
					return
				}
				delivered++
			case <-r.Context().Done():
				return
			case <-shutdown:
				return
			}
		}
	}
}

// registerEngineGauges binds this engine's instance state — base sizes,
// tier occupancy, standing-query registry — into the process-wide
// metrics registry as gauge funcs read at scrape time.
// Registration replaces any previous binding, so the gauges always
// describe the engine currently serving (obs.RegisterGaugeFunc's
// replace semantics exist for exactly this).
func registerEngineGauges(eng *streamsum.Engine) {
	base := eng.PatternBase()
	obs.RegisterGaugeFunc("sgs_base_clusters",
		"Clusters in the pattern base (memory + disk tiers).",
		func() float64 { return float64(base.Len()) })
	obs.RegisterGaugeFunc("sgs_base_bytes",
		"Encoded summary bytes in the pattern base (memory + disk tiers).",
		func() float64 { return float64(base.Bytes()) })
	obs.RegisterGaugeFunc("sgs_store_mem_entries",
		"Summaries resident in the memory tier.",
		func() float64 { return float64(base.TierStats().MemEntries) })
	obs.RegisterGaugeFunc("sgs_store_mem_bytes",
		"Encoded bytes resident in the memory tier.",
		func() float64 { return float64(base.TierStats().MemBytes) })
	obs.RegisterGaugeFunc("sgs_store_demote_queue_batches",
		"Demotion batches queued or in flight to the disk tier.",
		func() float64 { return float64(base.TierStats().DemotingBatches) })
	obs.RegisterGaugeFunc("sgs_store_demote_queue_entries",
		"Summaries queued or in flight to the disk tier.",
		func() float64 { return float64(base.TierStats().DemotingEntries) })
	obs.RegisterGaugeFunc("sgs_store_segments",
		"Live on-disk segments.",
		func() float64 { return float64(base.TierStats().Segments) })
	obs.RegisterGaugeFunc("sgs_store_segments_mapped",
		"On-disk segments currently served through mmap (the rest use pread).",
		func() float64 { return float64(base.TierStats().SegmentsMapped) })
	obs.RegisterGaugeFunc("sgs_store_segment_entries",
		"Summaries resident in the disk tier.",
		func() float64 { return float64(base.TierStats().SegEntries) })
	obs.RegisterGaugeFunc("sgs_store_segment_bytes",
		"Segment file bytes in the disk tier.",
		func() float64 { return float64(base.TierStats().SegBytes) })
	obs.RegisterGaugeFunc("sgs_sub_subscriptions",
		"Standing-query subscriptions currently registered.",
		func() float64 { return float64(eng.SubscriptionStats().Subscriptions) })
	obs.RegisterGaugeFunc("sgs_sub_queue_depth",
		"Subscription events enqueued but not yet handed to a consumer channel.",
		func() float64 { return float64(eng.SubscriptionQueueDepth()) })
}

// metricsHandler serves the process-wide metrics registry in the
// Prometheus text exposition format.
func metricsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default.WritePrometheus(w)
	}
}

// traceSummaryJSON is one flight-recorder trace in the /debug/traces
// listing; fetch the full span tree with ?trace=ID.
type traceSummaryJSON struct {
	Trace    string `json:"trace"`
	Category string `json:"category"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_unix_ns"`
	DurNS    int64  `json:"dur_ns"`
	Spans    int    `json:"spans"`
	Dropped  int    `json:"dropped_spans,omitempty"`
}

// tracesHandler serves the flight recorder. Without parameters it lists
// every retained trace (newest first within each category) as JSON
// summaries; ?category=NAME restricts to one pipeline category and
// ?trace=ID exports one trace's spans as NDJSON, one span per line, for
// piping into jq or a trace viewer.
func tracesHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("trace"); id != "" {
			td, ok := trace.Default.Find(id)
			if !ok {
				http.Error(w, fmt.Sprintf("no retained trace %q (the flight recorder keeps the last %d per category)", id, trace.Default.Capacity()), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			enc := json.NewEncoder(w)
			for _, sd := range td.Spans {
				_ = enc.Encode(sd)
			}
			return
		}
		var tds []trace.TraceData
		if c := r.URL.Query().Get("category"); c != "" {
			found := false
			for _, cat := range trace.Categories() {
				if cat.String() == c {
					tds = trace.Default.Traces(cat)
					found = true
					break
				}
			}
			if !found {
				http.Error(w, fmt.Sprintf("unknown category %q", c), http.StatusBadRequest)
				return
			}
		} else {
			tds = trace.Default.All()
		}
		out := make([]traceSummaryJSON, 0, len(tds))
		for _, td := range tds {
			out = append(out, traceSummaryJSON{
				Trace:    td.TraceID,
				Category: td.Category,
				Name:     td.Name,
				StartNS:  td.StartNS,
				DurNS:    td.DurNS,
				Spans:    len(td.Spans),
				Dropped:  td.Dropped,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	}
}

// processStart anchors the uptime gauges; package initialization runs
// before main, so this is as close to process birth as Go can observe.
var processStart = time.Now()

// buildIdentity reports the running binary's Go toolchain version and
// VCS revision ("unknown" outside a VCS checkout, e.g. module-cache
// builds or docker COPY contexts).
func buildIdentity() (goVersion, revision string) {
	goVersion = runtime.Version()
	revision = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
	}
	return goVersion, revision
}

// registerBuildGauges exposes the binary's build and process identity:
// which code is running (go version + VCS revision, as labels on a
// constant-1 info gauge, the Prometheus convention) and since when
// (start time + derived uptime).
func registerBuildGauges() {
	goVersion, revision := buildIdentity()
	obs.RegisterGaugeFunc("sgs_build_info",
		"Build identity; the value is always 1, the identity is in the labels.",
		func() float64 { return 1 },
		obs.L{Key: "go_version", Value: goVersion}, obs.L{Key: "revision", Value: revision})
	obs.RegisterGaugeFunc("sgs_process_start_time_seconds",
		"Unix time the process started.",
		func() float64 { return float64(processStart.UnixNano()) / 1e9 })
	obs.RegisterGaugeFunc("sgs_process_uptime_seconds",
		"Seconds since the process started.",
		func() float64 { return time.Since(processStart).Seconds() })
}

// statsHandler reports the pattern base's current size (split across the
// memory and disk tiers), the standing-query registry's activity, and the
// process's build and runtime identity.
func statsHandler(eng *streamsum.Engine) http.HandlerFunc {
	goVersion, revision := buildIdentity()
	return func(w http.ResponseWriter, r *http.Request) {
		base := eng.PatternBase()
		ts := base.TierStats()
		ss := eng.SubscriptionStats()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"go_version":           goVersion,
			"revision":             revision,
			"start_time_unix":      processStart.Unix(),
			"uptime_seconds":       time.Since(processStart).Seconds(),
			"trace_capacity":       trace.Default.Capacity(),
			"clusters":             base.Len(),
			"bytes":                base.Bytes(),
			"mem_clusters":         ts.MemEntries,
			"mem_bytes":            ts.MemBytes,
			"demoting_clusters":    ts.DemotingEntries,
			"demoting_bytes":       ts.DemotingBytes,
			"demote_queue_batches": ts.DemotingBatches,
			"segments":             ts.Segments,
			"segments_mapped":      ts.SegmentsMapped,
			"segment_clusters":     ts.SegEntries,
			"segment_bytes":        ts.SegBytes,
			"segment_dead":         ts.SegDead,
			"segment_compactions":  ts.Compactions,
			"subscriptions":        ss.Subscriptions,
			"sub_queue_depth":      eng.SubscriptionQueueDepth(),
			"sub_windows":          ss.Windows,
			"sub_candidates":       ss.Candidates,
			"sub_events":           ss.Events,
			"sub_eval_last_us":     ss.LastEval.Microseconds(),
			"sub_eval_total_us":    ss.TotalEval.Microseconds(),
		})
	}
}
