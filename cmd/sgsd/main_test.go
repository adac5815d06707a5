package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamsum"
	"streamsum/internal/gen"
)

// testLogger discards everything; tests that assert on log output build
// their own buffer-backed logger instead.
func testLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// testEngine builds an archiving engine with some history so /match and
// /subscribe targets resolve.
func testEngine(t *testing.T) *streamsum.Engine {
	t.Helper()
	eng, err := streamsum.New(streamsum.Options{
		Dim: 2, ThetaR: 1.0, ThetaC: 4, Win: 4000, Slide: 1000,
		Archive: &streamsum.ArchiveOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := gen.GMTI(gen.GMTIConfig{Seed: 21}, 8000)
	if _, err := eng.PushBatch(data.Points, nil); err != nil {
		t.Fatal(err)
	}
	if eng.PatternBase().Len() == 0 {
		t.Fatal("fixture archived nothing")
	}
	return eng
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestHTTPErrorHygiene: malformed queries are 400s carrying the parse
// error, unknown archive ids are 404s — on both /match and /subscribe —
// and a standing query sent to /match (or a one-shot to /subscribe) is
// a 400 explaining the mismatch.
func TestHTTPErrorHygiene(t *testing.T) {
	eng := testEngine(t)
	mux := http.NewServeMux()
	shutdown := make(chan struct{})
	mux.HandleFunc("/match", matchHandler(eng, 0, testLogger()))
	mux.HandleFunc("/subscribe", subscribeHandler(eng, shutdown))
	mux.HandleFunc("/stats", statsHandler(eng))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(shutdown)

	cases := []struct {
		path     string
		wantCode int
		wantSub  string // substring the body must carry
	}{
		// Parse errors → 400 with the parser's message.
		{"/match?q=GIVEN+nonsense", 400, "query:"},
		{"/subscribe?q=GIVEN+nonsense", 400, "query:"},
		{"/match", 400, "missing q"},
		{"/subscribe", 400, "missing q"},
		// Wrong endpoint for the query form → 400 explaining it.
		{"/match?q=" + q("GIVEN DensityBasedCluster 0 SELECT DensityBasedClusters FROM Stream WHERE Distance <= 0.2"), 400, "standing"},
		{"/subscribe?q=" + q("GIVEN DensityBasedCluster 0 SELECT DensityBasedClusters FROM History WHERE Distance <= 0.2"), 400, "standing"},
		// Non-integer target → 400.
		{"/match?q=" + q("GIVEN DensityBasedCluster input SELECT DensityBasedClusters FROM History WHERE Distance <= 0.2"), 400, "archive id"},
		{"/subscribe?q=" + q("GIVEN DensityBasedCluster input SELECT DensityBasedClusters FROM Stream WHERE Distance <= 0.2"), 400, "archive id"},
		// Unknown archive id → 404.
		{"/match?q=" + q("GIVEN DensityBasedCluster 999999 SELECT DensityBasedClusters FROM History WHERE Distance <= 0.2"), 404, "no archived cluster"},
		{"/subscribe?q=" + q("GIVEN DensityBasedCluster 999999 SELECT DensityBasedClusters FROM Stream WHERE Distance <= 0.2"), 404, "no archived cluster"},
		// Well-formed requests still work.
		{"/match?q=" + q("GIVEN DensityBasedCluster 0 SELECT DensityBasedClusters FROM History WHERE Distance <= 0.3 LIMIT 2"), 200, `"matches"`},
		{"/stats", 200, `"subscriptions"`},
	}
	for _, c := range cases {
		code, body := get(t, srv, c.path)
		if code != c.wantCode {
			t.Errorf("GET %s = %d (%q), want %d", c.path, code, strings.TrimSpace(body), c.wantCode)
			continue
		}
		if !strings.Contains(body, c.wantSub) {
			t.Errorf("GET %s body %q missing %q", c.path, strings.TrimSpace(body), c.wantSub)
		}
	}
}

// TestMatchBadQueryIs400: a query the matcher itself rejects as malformed
// — here a 1-D target against the 2-D base, which no GIVEN archive id can
// produce, so the resolved half of the handler is driven directly — is
// the client's error (400 with the matcher's message), not a 500, and
// never a panic in the location probe.
func TestMatchBadQueryIs400(t *testing.T) {
	eng := testEngine(t)
	line := make([]streamsum.Point, 40)
	for i := range line {
		line[i] = streamsum.Point{float64(i) * 0.2}
	}
	static, err := streamsum.SummarizeStatic(line, 1.0, 4)
	if err != nil || len(static) == 0 {
		t.Fatalf("1-D fixture: %d clusters, err %v", len(static), err)
	}
	ps := streamsum.EqualWeights()
	ps.PositionSensitive = true
	for _, w := range []*streamsum.Weights{nil, &ps} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/match", nil)
		mo := streamsum.MatchOptions{Target: static[0].Summary, Threshold: 0.3, Weights: w}
		serveMatch(eng, 0, testLogger(), rec, req, mo, 0)
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), "dimension") {
			t.Errorf("weights %v: status %d body %q, want 400 naming the dimension", w, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

func q(s string) string {
	return strings.ReplaceAll(s, " ", "+")
}

// TestHTTPSubscribeStream: a /subscribe connection receives the
// subscribed handshake and then match events as new windows archive,
// newline-delimited JSON, ending cleanly at server shutdown.
func TestHTTPSubscribeStream(t *testing.T) {
	eng := testEngine(t)
	mux := http.NewServeMux()
	shutdown := make(chan struct{})
	mux.HandleFunc("/subscribe", subscribeHandler(eng, shutdown))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		srv.URL+"/subscribe?q="+q("GIVEN DensityBasedCluster 0 SELECT DensityBasedClusters FROM Stream WHERE Distance <= 0.5"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	// Decode-side union of the per-type wire structs. Pointer fields
	// assert presence: ids, seq and distance are legitimately zero, so
	// the wire format must always carry them (no omitempty).
	type wireEvent struct {
		Type     string   `json:"type"`
		SubID    *int64   `json:"sub"`
		Seq      *uint64  `json:"seq"`
		ID       *int64   `json:"id"`
		Distance *float64 `json:"distance"`
		Cells    int      `json:"cells"`
	}
	readEvent := func() wireEvent {
		t.Helper()
		select {
		case ln, ok := <-lines:
			if !ok {
				t.Fatal("stream ended early")
			}
			var ev wireEvent
			if err := json.Unmarshal([]byte(ln), &ev); err != nil {
				t.Fatalf("bad event line %q: %v", ln, err)
			}
			return ev
		case <-time.After(20 * time.Second):
			t.Fatal("timed out waiting for an event")
		}
		panic("unreachable")
	}

	if ev := readEvent(); ev.Type != "subscribed" || ev.SubID == nil {
		t.Fatalf("first event = %+v, want subscribed handshake carrying \"sub\" (id 0 must serialize)", ev)
	}
	// Feed more stream: the archived target recurs across overlapping
	// windows, so a generous threshold must produce events.
	data := gen.GMTI(gen.GMTIConfig{Seed: 21}, 8000)
	if _, err := eng.PushBatch(data.Points, nil); err != nil {
		t.Fatal(err)
	}
	ev := readEvent()
	if ev.Type != "match" || ev.Cells == 0 {
		t.Fatalf("event = %+v, want a match with cells", ev)
	}
	if ev.ID == nil || ev.Distance == nil || ev.Seq == nil || ev.SubID == nil {
		t.Fatalf("match event %+v omits zero-valued fields; id/distance/seq/sub must always be present", ev)
	}

	// Server shutdown ends the stream (the connection would otherwise
	// never go idle).
	close(shutdown)
	deadline := time.After(20 * time.Second)
	for {
		select {
		case _, ok := <-lines:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("stream did not end at shutdown")
		}
	}
}

// TestHTTPServerBounds: the daemon's server bounds header reads and idle
// connections, and sets no write timeout, which would cut /subscribe and
// /debug/pprof/profile streams short.
func TestHTTPServerBounds(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(h)
	if srv.Handler != h {
		t.Error("server does not serve the given handler")
	}
	if srv.ReadHeaderTimeout != httpReadHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, httpReadHeaderTimeout)
	}
	if srv.IdleTimeout != httpIdleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, httpIdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 for the streaming endpoints", srv.WriteTimeout)
	}
}
