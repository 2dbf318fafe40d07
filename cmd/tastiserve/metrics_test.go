package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// metricLine is "name{labels} value" or "name value" — the shape every
// Prometheus text-format parser requires of non-comment lines.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestMetricsEndpoint drives real traffic through the server and checks
// that /metrics renders parseable Prometheus text carrying the build,
// request, breaker, and query-layer series.
func TestMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, err := newServer(testServerOptions)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// The build labels through the serving store, outside its query counts:
	// right after it, every tasti_labelstore_* series but the entry gauge
	// still reads 0, and the gauge holds every label the build bought.
	fams := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"tasti_labelstore_hits_total", "tasti_labelstore_misses_total", "tasti_labelstore_entries"} {
		if fams[name] == nil {
			t.Errorf("/metrics has no %s after the build", name)
		}
	}
	built := float64(srv.index.Pin().Stats.TotalLabelCalls())
	for name, fam := range fams {
		if !strings.HasPrefix(name, "tasti_labelstore_") {
			continue
		}
		want := 0.0
		if name == "tasti_labelstore_entries" {
			want = built
		}
		for _, smp := range fam.Samples {
			if smp.Value != want {
				t.Errorf("%s reads %v right after the build, want %v", smp.Name, smp.Value, want)
			}
		}
	}

	// Generate traffic so request counters and latency histograms have
	// observations beyond the scrape itself.
	for _, path := range []string{"/healthz", "/index"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/query/aggregate", "application/json",
		strings.NewReader(`{"class":"car","err":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	// Every line is a comment or a well-formed sample.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("malformed metric line %q", line)
		}
	}

	for _, want := range []string{
		// Build-phase walls and label accounting.
		"tasti_builds_total 1",
		`tasti_build_phase_seconds{phase="cluster"}`,
		`tasti_build_label_calls_total{phase="rep"}`,
		// Request instrumentation.
		`tasti_http_requests_total{route="/index",code="200"}`,
		`tasti_http_request_seconds_bucket{route="/query/aggregate",le="+Inf"}`,
		"tasti_http_in_flight 1", // the scrape itself is in flight
		// Serve-path breaker health.
		"tasti_breaker_state 0",
		"tasti_breaker_trips_total 0",
		// Query-layer spend.
		`tasti_query_runs_total{type="aggregate"} 1`,
		`tasti_query_label_calls_total{type="aggregate"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// TYPE lines accompany every family we asserted on.
	for _, want := range []string{
		"# TYPE tasti_builds_total counter",
		"# TYPE tasti_build_phase_seconds gauge",
		"# TYPE tasti_http_request_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsMethodNotAllowed rejects writes to the scrape endpoint.
func TestMetricsMethodNotAllowed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d, want 405", resp.StatusCode)
	}
}
