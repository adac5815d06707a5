package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHTTPMetrics: /metrics serves the Prometheus text exposition format
// and covers every instrumented subsystem — ingest, match, store, cache,
// subscriptions — plus the engine gauges bound at startup. The families
// are registered at init / server setup, so they must be present (if
// zero-valued) on the very first scrape.
func TestHTTPMetrics(t *testing.T) {
	eng := testEngine(t)
	registerEngineGauges(eng)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", metricsHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q, want text exposition format 0.0.4", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	// One family per subsystem the issue names, plus exposition-format
	// landmarks: HELP/TYPE headers, histogram bucket/sum/count series.
	for _, want := range []string{
		// ingest (testEngine pushed a batch, so these are live, not zero)
		"# TYPE sgs_ingest_tuples_total counter",
		"# TYPE sgs_ingest_discovery_seconds histogram",
		"sgs_ingest_apply_seconds_bucket{le=\"+Inf\"}",
		"sgs_ingest_emit_seconds_sum",
		"sgs_ingest_emit_seconds_count",
		// match
		"# TYPE sgs_match_queries_total counter",
		"# TYPE sgs_match_filter_seconds histogram",
		"sgs_match_refine_seconds_bucket",
		"# TYPE sgs_match_pruned_pairs_total counter",
		"# TYPE sgs_match_topk_skipped_total counter",
		// store
		"# TYPE sgs_segstore_segment_scans_total counter",
		"sgs_segstore_record_loads_total{mode=\"mmap\"}",
		"sgs_archive_demote_flush_seconds_bucket",
		// cache
		"# TYPE sgs_sumcache_hits_total counter",
		"sgs_sumcache_evictions_total",
		// subscriptions
		"# TYPE sgs_sub_windows_total counter",
		"# TYPE sgs_sub_eval_seconds histogram",
		"sgs_sub_delivery_seconds_bucket",
		// engine gauges bound by registerEngineGauges
		"# TYPE sgs_base_clusters gauge",
		"# TYPE sgs_store_segments gauge",
		"# TYPE sgs_segstore_segments_opened_total counter",
		"sgs_sub_queue_depth",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// There is one segment format, so no series is split by format.
	if strings.Contains(body, "format=") {
		t.Error("/metrics labels a series by segment format")
	}
	// HELP precedes TYPE for each family, once.
	if strings.Count(body, "# HELP sgs_ingest_tuples_total ") != 1 {
		t.Error("sgs_ingest_tuples_total HELP line missing or repeated")
	}
	// The fixture archived clusters, so the base gauge must be nonzero.
	if strings.Contains(body, "sgs_base_clusters 0\n") {
		t.Error("sgs_base_clusters reads 0 after archiving fixture windows")
	}
}

// TestHTTPStatsFields: /stats carries the tier/cache/subscription fields
// monitoring relies on, including the ones folded in alongside /metrics
// (demotion queue depth, mapped segments, subscription queue depth).
func TestHTTPStatsFields(t *testing.T) {
	eng := testEngine(t)
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", statsHandler(eng))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	code, body := get(t, srv, "/stats")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	for _, key := range []string{
		"clusters", "bytes", "mem_clusters", "mem_bytes",
		"demoting_clusters", "demoting_bytes", "demote_queue_batches",
		"segments", "segments_mapped",
		"segment_clusters", "segment_bytes", "segment_dead", "segment_compactions",
		"cache_hits", "cache_misses", "cache_hit_ratio", "cache_evicted",
		"cache_entries", "cache_bytes", "cache_budget",
		"subscriptions", "sub_queue_depth", "sub_windows", "sub_candidates",
		"sub_events", "sub_eval_last_us", "sub_eval_total_us",
	} {
		if _, ok := st[key]; !ok {
			t.Errorf("/stats missing %q", key)
		}
	}
	if st["clusters"].(float64) == 0 {
		t.Error("/stats clusters reads 0 after archiving fixture windows")
	}
}

// TestHTTPMatchPhases: every /match response carries the query's phase
// trace — wall times per phase plus the pruning detail (segments probed
// vs zone-skipped, cache hits vs disk loads).
func TestHTTPMatchPhases(t *testing.T) {
	eng := testEngine(t)
	mux := http.NewServeMux()
	mux.HandleFunc("/match", matchHandler(eng, 0, testLogger()))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp0, err := srv.Client().Get(srv.URL + "/match?q=" + q("GIVEN DensityBasedCluster 0 SELECT DensityBasedClusters FROM History WHERE Distance <= 0.3 LIMIT 2"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp0.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp0.Body); err != nil {
		t.Fatal(err)
	}
	if resp0.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp0.StatusCode, body.String())
	}
	var resp struct {
		Refined int `json:"refined"`
		Phases  *struct {
			Trace     string `json:"trace"`
			FilterNS  int64  `json:"filter_ns"`
			RefineNS  int64  `json:"refine_ns"`
			OrderNS   int64  `json:"order_ns"`
			Probed    int    `json:"segments_probed"`
			Skipped   int    `json:"segments_skipped"`
			CacheHits int    `json:"cache_hits"`
			DiskLoads int    `json:"disk_loads"`
			Pruned    *int   `json:"pruned"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(body.Bytes(), &resp); err != nil {
		t.Fatalf("bad /match JSON: %v", err)
	}
	if resp.Phases == nil {
		t.Fatal("/match response has no phases object")
	}
	if resp.Phases.FilterNS <= 0 || resp.Phases.RefineNS <= 0 || resp.Phases.OrderNS <= 0 {
		t.Errorf("phase timings not all positive: %+v", resp.Phases)
	}
	// All-memory fixture: every refined candidate is a memory-tier entry,
	// so no segment probes and no cache/disk attribution.
	if resp.Phases.Probed != 0 || resp.Phases.Skipped != 0 {
		t.Errorf("memory-only base reports segment probes: %+v", resp.Phases)
	}
	// How many refined pairs a distance bound dismissed is part of the
	// summary (the field is always present), and never exceeds them.
	if p := resp.Phases.Pruned; p == nil || *p < 0 || *p > resp.Refined {
		t.Errorf("phases pruned = %v with %d refined", p, resp.Refined)
	}
	// The phase summary is derived from a span trace, whose id comes back
	// both in the body and as a W3C traceparent response header.
	if len(resp.Phases.Trace) != 32 {
		t.Errorf("phases trace id %q, want 32 hex chars", resp.Phases.Trace)
	}
	if tp := resp0.Header.Get("traceparent"); !strings.Contains(tp, resp.Phases.Trace) {
		t.Errorf("traceparent header %q does not carry trace id %q", tp, resp.Phases.Trace)
	}
}

// TestSlowQueryLog: a threshold every query exceeds makes the handler
// log the full phase breakdown; threshold 0 logs nothing.
func TestSlowQueryLog(t *testing.T) {
	eng := testEngine(t)
	for _, tc := range []struct {
		name    string
		slow    time.Duration // -slow-query value
		wantLog bool
	}{
		{name: "triggered", slow: time.Nanosecond, wantLog: true},
		{name: "disabled", slow: 0, wantLog: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logBuf bytes.Buffer
			logger := slog.New(slog.NewTextHandler(&logBuf, nil))
			mux := http.NewServeMux()
			mux.HandleFunc("/match", matchHandler(eng, tc.slow, logger))
			srv := httptest.NewServer(mux)
			defer srv.Close()

			code, body := get(t, srv, "/match?q="+q("GIVEN DensityBasedCluster 0 SELECT DensityBasedClusters FROM History WHERE Distance <= 0.3 LIMIT 2"))
			if code != 200 {
				t.Fatalf("status %d: %s", code, body)
			}
			got := logBuf.String()
			if tc.wantLog {
				for _, want := range []string{"slow /match", "filter=", "refine=", "order=", "cache_hits=", "pruned=", "trace="} {
					if !strings.Contains(got, want) {
						t.Errorf("slow-query log %q missing %q", got, want)
					}
				}
			} else if strings.Contains(got, "slow /match") {
				t.Errorf("slow-query log fired with threshold 0: %q", got)
			}
		})
	}
}
