package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeStatus is a ready server's /admin/status payload with every optional
// section present: health, drift, WAL, tracing.
const fakeStatus = `{
  "status": "ready",
  "dataset": "night-street",
  "version": "0.8.0",
  "go": "go1.22.0",
  "kernel": "avx2",
  "uptime_seconds": 128.4,
  "trace_sample_rate": 0.25,
  "traces_retained": 12,
  "trace_ring_cap": 256,
  "breaker_state": "closed",
  "ledger": {
    "requests": 9,
    "labels": 412,
    "records": 5400,
    "shards": 18,
    "hits": 37,
    "wall_ns": 2500000
  },
  "label_store": {
    "entries": 680,
    "dirty": 14,
    "global_budget": 1000,
    "tenant_budget": 200,
    "global_remaining": 588,
    "tenants": {
      "acme": {"spent": 180, "remaining": 20},
      "beta": {"spent": 200, "remaining": 0}
    }
  },
  "proxy_columns": {"entries": 9, "bytes": 4320000, "generation": 12, "hits": 1984, "misses": 16},
  "health": {
    "collected_at": "2026-08-08T12:00:00Z",
    "records": 916,
    "representatives": 150,
    "shards": 2,
    "radius_p50": 0.031,
    "radius_p90": 0.084,
    "radius_p99": 0.141,
    "drift": {"ratio": 1.62, "baseline": 0.03, "triggered": true},
    "wal": {"segments": 1, "bytes": 2048, "first_record": 900, "next_record": 916, "lag_records": 16, "queue_depth": 3}
  }
}`

const fakeMetrics = `# HELP tasti_query_runs_total Queries served, by type.
# TYPE tasti_query_runs_total counter
tasti_query_runs_total{type="aggregate"} 5
tasti_query_runs_total{type="select"} 3
tasti_query_runs_total{type="limit"} 1
# TYPE tasti_http_requests_total counter
tasti_http_requests_total{route="/query/limit",code="200"} 7
tasti_http_requests_total{route="/query/limit",code="500"} 1
tasti_http_requests_total{route="/admin/reload",code="502"} 1
tasti_http_requests_total{route="/query/select",code="429"} 3
# TYPE tasti_http_in_flight gauge
tasti_http_in_flight 1
# TYPE tasti_ingest_acked_total counter
tasti_ingest_acked_total 16
# TYPE tasti_labelstore_hits_total counter
tasti_labelstore_hits_total 1530
# TYPE tasti_labelstore_misses_total counter
tasti_labelstore_misses_total 412
# TYPE tasti_labelstore_coalesced_total counter
tasti_labelstore_coalesced_total 24
`

func statServer(t *testing.T, status, metrics string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(status))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(metrics))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestSnapshotReadyView drives the full fetch+render path against fabricated
// endpoints and checks each line of the operator view carries the right
// numbers in the right section.
func TestSnapshotReadyView(t *testing.T) {
	ts := statServer(t, fakeStatus, fakeMetrics)
	out, err := snapshot(ts.URL)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("want 8 lines, got %d:\n%s", len(lines), out)
	}
	wantIn := map[int][]string{
		0: {"night-street", "ready", "v0.8.0 go1.22.0", "kernel avx2", "up 2m8s"},
		1: {"916 records", "150 reps", "2 shard(s) · radius", "0.031/0.084/0.141"},
		2: {"agg 5 sel 3 lim 1", "labels 412 (hits 37)", "5xx 2", "in-flight 1", "breaker closed"},
		3: {"ledger  9 requests", "5400 records touched", "wall 2.5ms"},
		4: {"labels  680 stored (14 dirty)", "hit rate 78.8% (1530/1942)", "coalesced 24", "budget 588/1000 left", "tenants acme 20/200 beta 0/200"},
		5: {"columns 9 cached", "4.1MiB", "hit rate 99.2% (1984/2000)", "generation 12"},
		6: {"acked 16", "queue 3", "wal lag 16 rec / 1 seg / 2.0KiB", "drift 1.62x of 0.03", "TRIGGERED"},
		7: {"traces  12/256 retained", "sampling 25.0%"},
	}
	for i, wants := range wantIn {
		for _, want := range wants {
			if !strings.Contains(lines[i], want) {
				t.Errorf("line %d missing %q: %s", i, want, lines[i])
			}
		}
	}
}

// TestSnapshotBuildingView: before the index is ready the status payload has
// no health or breaker fields; the view must degrade to the identity line
// and tracing line only, with no zero-filled sections.
func TestSnapshotBuildingView(t *testing.T) {
	status := `{"status":"building","dataset":"taipei","version":"0.8.0","go":"go1.22.0","kernel":"scalar","uptime_seconds":2,"trace_sample_rate":0.01,"traces_retained":0,"trace_ring_cap":256,"ledger":{"requests":0,"labels":0,"records":0,"shards":0,"hits":0,"wall_ns":0}}`
	ts := statServer(t, status, "")
	out, err := snapshot(ts.URL)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if !strings.Contains(out, "taipei · building") {
		t.Errorf("missing building status: %s", out)
	}
	for _, absent := range []string{"index ", "queries", "ledger", "ingest"} {
		if strings.Contains(out, absent) {
			t.Errorf("building view should omit %q section:\n%s", absent, out)
		}
	}
}

// TestSnapshotBuildFailedView surfaces the build error on its own line.
func TestSnapshotBuildFailedView(t *testing.T) {
	status := `{"status":"build failed","error":"labeler: permanent fault","dataset":"taipei","version":"0.8.0","go":"go1.22.0","kernel":"scalar","uptime_seconds":9,"trace_sample_rate":0,"traces_retained":0,"trace_ring_cap":256,"ledger":{"requests":0,"labels":0,"records":0,"shards":0,"hits":0,"wall_ns":0}}`
	ts := statServer(t, status, "")
	out, err := snapshot(ts.URL)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if !strings.Contains(out, "error   labeler: permanent fault") {
		t.Errorf("missing error line:\n%s", out)
	}
	// Tracing disabled (rate 0) drops the traces line.
	if strings.Contains(out, "traces") {
		t.Errorf("rate-0 view should omit traces line:\n%s", out)
	}
}

func TestSizeOf(t *testing.T) {
	cases := map[int64]string{
		0:           "0B",
		512:         "512B",
		2048:        "2.0KiB",
		1536 * 1024: "1.5MiB",
	}
	for in, want := range cases {
		if got := sizeOf(in); got != want {
			t.Errorf("sizeOf(%d) = %q, want %q", in, got, want)
		}
	}
}
