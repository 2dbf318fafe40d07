package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/tasti"
)

var traceIDPattern = regexp.MustCompile(`^[0-9a-f]{16}$`)

// tracesResponse mirrors the GET /admin/traces payload.
type tracesResponse struct {
	SampleRate float64            `json:"sample_rate"`
	Capacity   int                `json:"capacity"`
	Retained   int                `json:"retained"`
	Count      int                `json:"count"`
	Traces     []tasti.TraceEntry `json:"traces"`
}

func getTraces(t *testing.T, url, query string) tracesResponse {
	t.Helper()
	resp, err := http.Get(url + "/admin/traces" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/traces status = %d", resp.StatusCode)
	}
	var out tracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func childSpan(sp tasti.SpanSnapshot, name string) *tasti.SpanSnapshot {
	for i := range sp.Children {
		if sp.Children[i].Name == name {
			return &sp.Children[i]
		}
	}
	return nil
}

func postQuery(t *testing.T, url, kind, body, tenant string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query/"+kind, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tasti-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query/%s status = %d: %s", kind, resp.StatusCode, raw)
	}
	return raw
}

// TestTracesAndLogCorrelation drives one query of each type through a
// trace-everything server and checks the full observability contract: the
// span tree shape per query type — two shard views add no span — the ring
// filters, and the trace ID correlated into the structured request log.
func TestTracesAndLogCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var logBuf syncBuffer
	srv, err := newServer(serverOptions{
		dataset: "night-street", size: 600, train: 120, reps: 100, seed: 1,
		shards: 2, traceSample: 1,
		logger: newJSONLogger(&logBuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	postQuery(t, ts.URL, "aggregate", `{"class":"car","err":0.2}`, "")
	postQuery(t, ts.URL, "select", `{"class":"car","count":1,"budget":80,"recall":0.9}`, "")
	postQuery(t, ts.URL, "limit", `{"class":"car","count":3,"k":5}`, "")

	// /index reports the view count the server was started with.
	resp, err := http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); body["shards"] != float64(2) {
		t.Errorf("/index shards = %v, want 2", body["shards"])
	}

	all := getTraces(t, ts.URL, "")
	if all.SampleRate != 1 || all.Count != 3 {
		t.Fatalf("traces: sample_rate=%v count=%d, want 1 and 3", all.SampleRate, all.Count)
	}
	wantShape := map[string][]string{
		"/query/aggregate": {"propagate", "estimate"},
		"/query/select":    {"propagate", "sample"},
		"/query/limit":     {"propagate", "order", "scan"},
	}
	seen := map[string]bool{}
	for _, e := range all.Traces {
		if !traceIDPattern.MatchString(e.TraceID) {
			t.Errorf("trace %s has malformed id %q", e.Route, e.TraceID)
		}
		if e.DurationNS <= 0 {
			t.Errorf("trace %s has duration %d", e.Route, e.DurationNS)
		}
		stages, ok := wantShape[e.Route]
		if !ok {
			t.Errorf("unexpected trace route %q", e.Route)
			continue
		}
		seen[e.Route] = true
		for _, stage := range stages {
			sp := childSpan(e.Root, stage)
			if sp == nil {
				t.Errorf("%s trace missing %q span (have %v)", e.Route, stage, spanNames(e.Root))
			}
		}
		// Propagation and the heapify run on the worker grid, not per view.
		for _, stage := range []string{"propagate", "order"} {
			if sp := childSpan(e.Root, stage); sp != nil && len(sp.Children) != 0 {
				t.Errorf("%s %s span has children %v, want none", e.Route, stage, spanNames(*sp))
			}
		}
	}
	for route := range wantShape {
		if !seen[route] {
			t.Errorf("no trace retained for %s", route)
		}
	}

	// Filters: by route, and by a latency floor nothing reaches.
	byRoute := getTraces(t, ts.URL, "?route=/query/aggregate")
	if byRoute.Count != 1 || byRoute.Traces[0].Route != "/query/aggregate" {
		t.Errorf("route filter returned %d traces (%+v)", byRoute.Count, byRoute.Traces)
	}
	if slow := getTraces(t, ts.URL, "?min_ms=3600000"); slow.Count != 0 {
		t.Errorf("min_ms filter returned %d traces, want 0", slow.Count)
	}
	if resp, err := http.Get(ts.URL + "/admin/traces?min_ms=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad min_ms status = %d, want 400", resp.StatusCode)
		}
	}

	// Every query's JSON log line carries the trace ID of its retained trace,
	// and the line is, key for key and in this order, the access-log schema of
	// docs/OBSERVABILITY.md.
	fullLine := regexp.MustCompile(`^\{"time":"[^"]+","level":"INFO","msg":"request","method":"POST","route":"/query/aggregate",` +
		`"status":200,"latency_ms":[0-9]+(\.[0-9]+)?,"trace_id":"[0-9a-f]{16}","query_type":"aggregate"\}$`)
	fullLines := 0
	logIDs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if fullLine.MatchString(line) {
			fullLines++
		}
		var rec struct {
			Msg     string `json:"msg"`
			Route   string `json:"route"`
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if rec.Msg != "request" || !strings.HasPrefix(rec.Route, "/query/") {
			continue
		}
		if !traceIDPattern.MatchString(rec.TraceID) {
			t.Errorf("log line for %s has malformed trace_id %q", rec.Route, rec.TraceID)
		}
		logIDs[rec.TraceID] = true
	}
	for _, e := range all.Traces {
		if !logIDs[e.TraceID] {
			t.Errorf("trace %s (%s) has no matching request log line", e.TraceID, e.Route)
		}
	}
	if fullLines != 1 {
		t.Errorf("%d log lines match the aggregate request's full access-log line, want 1:\n%s", fullLines, logBuf.String())
	}
}

func spanNames(sp tasti.SpanSnapshot) []string {
	names := make([]string, len(sp.Children))
	for i, c := range sp.Children {
		names[i] = c.Name
	}
	return names
}

func newJSONLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}

// syncBuffer guards a bytes.Buffer: slog handlers serialize their own
// writes, but the test reads while the server may still log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestLedgerReconciliation fires concurrent mixed queries from three
// tenants and audits the books: per-tenant totals must sum exactly to the
// global totals, and the global label spend must equal the query layer's
// own tasti_query_label_calls_total counters — the ledger meters the same
// successful-Label events the counters count.
func TestLedgerReconciliation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, err := newServer(serverOptions{
		dataset: "night-street", size: 600, train: 120, reps: 100, seed: 1,
		shards: 2, parallelism: 2, traceSample: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	tenants := []string{"alpha", "beta", ""}
	queries := map[string]string{
		"aggregate": `{"class":"car","err":0.2}`,
		"select":    `{"class":"car","count":1,"budget":80,"recall":0.9}`,
		"limit":     `{"class":"car","count":3,"k":5}`,
	}
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		for kind, body := range queries {
			wg.Add(1)
			go func(tenant, kind, body string) {
				defer wg.Done()
				postQuery(t, ts.URL, kind, body, tenant)
			}(tenant, kind, body)
		}
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/admin/ledger")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/ledger status = %d", resp.StatusCode)
	}
	var snap tasti.LedgerSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if snap.Conservation != "ok" {
		t.Fatalf("conservation = %q", snap.Conservation)
	}
	if snap.Global.Requests != 9 {
		t.Errorf("global requests = %d, want 9", snap.Global.Requests)
	}
	var sum tasti.LedgerTotals
	names := map[string]bool{}
	for _, tt := range snap.Tenants {
		names[tt.Tenant] = true
		sum.Requests += tt.Requests
		sum.Labels += tt.Labels
		sum.Records += tt.Records
		sum.Hits += tt.Hits
		sum.WallNS += tt.WallNS
	}
	if sum != snap.Global {
		t.Errorf("tenant sum %+v != global %+v", sum, snap.Global)
	}
	for _, want := range []string{"alpha", "beta", "default"} {
		if !names[want] {
			t.Errorf("ledger missing tenant %q (have %v)", want, names)
		}
	}
	for _, e := range snap.Recent {
		if e.Status != http.StatusOK || e.Records != 600 || e.WallNS <= 0 {
			t.Errorf("bad recent entry %+v", e)
		}
		if !traceIDPattern.MatchString(e.TraceID) {
			t.Errorf("recent entry has malformed trace id %q", e.TraceID)
		}
		if e.Hits > e.Labels {
			t.Errorf("entry books %d hits > %d labels", e.Hits, e.Labels)
		}
	}

	// Exact reconciliation against the query layer's own counters.
	fams := scrapeMetrics(t, ts.URL)
	var counterLabels int64
	fam := fams["tasti_query_label_calls_total"]
	if fam == nil {
		t.Fatal("tasti_query_label_calls_total missing from /metrics")
	}
	for _, sm := range fam.Samples {
		counterLabels += int64(sm.Value)
	}
	if snap.Global.Labels != counterLabels {
		t.Errorf("ledger books %d labels, tasti_query_label_calls_total says %d",
			snap.Global.Labels, counterLabels)
	}
	if snap.Global.Labels <= 0 {
		t.Error("no label spend booked at all")
	}
	// Every successful label came back exactly one way: as a store hit (read
	// lock-free by the request's labeler and published once per request, or
	// counted by the store on its own paths), as the leader of an oracle call,
	// or as a waiter on one. Nothing failed here, so the three add up to the
	// ledger's labels — concurrent requests lose and double-count nothing.
	var storeLabels int64
	for _, name := range []string{"tasti_labelstore_hits_total", "tasti_labelstore_misses_total", "tasti_labelstore_coalesced_total"} {
		if fam := fams[name]; fam != nil {
			for _, sm := range fam.Samples {
				storeLabels += int64(sm.Value)
			}
		}
	}
	if snap.Global.Labels != storeLabels {
		t.Errorf("ledger books %d labels, the store's hits+misses+coalesced say %d", snap.Global.Labels, storeLabels)
	}
	if snap.Global.Hits <= 0 || snap.Global.Hits > snap.Global.Labels {
		t.Errorf("ledger books %d hits of %d labels", snap.Global.Hits, snap.Global.Labels)
	}

	// Each entry's hits. The storm's entries sum to the global figure, which
	// the store's own hit counter bounds (a label another request lands
	// between this one's two lookups is the store's hit and this ledger's
	// miss). A repeat of each query with nothing else going on buys nothing:
	// every draw is a store hit or an exact score standing for one, so its
	// entry books as many hits as labels — the labels its body reports.
	var entryHits int64
	for _, e := range snap.Recent {
		entryHits += e.Hits
	}
	if storeHits := int64(fams["tasti_labelstore_hits_total"].Samples[0].Value); entryHits != snap.Global.Hits || entryHits > storeHits {
		t.Errorf("entries book %d hits, the ledger %d, the store %d", entryHits, snap.Global.Hits, storeHits)
	}
	for _, kind := range []string{"aggregate", "select", "limit"} {
		var body struct {
			LabelCalls int64 `json:"label_calls"`
		}
		if err := json.Unmarshal(postQuery(t, ts.URL, kind, queries[kind], "alpha"), &body); err != nil {
			t.Fatal(err)
		}
		if e := srv.ledger.Snapshot().Recent[0]; e.Kind != kind || e.Labels != body.LabelCalls || e.Hits != e.Labels || e.Labels == 0 {
			t.Errorf("repeated %s answered with %d label calls; its entry books %d labels, %d hits (%+v)", kind, body.LabelCalls, e.Labels, e.Hits, e)
		}
	}
	if bought := scrapeMetrics(t, ts.URL)["tasti_labelstore_misses_total"]; bought.Samples[0].Value != fams["tasti_labelstore_misses_total"].Samples[0].Value {
		t.Errorf("the repeats bought labels: misses %v -> %v", fams["tasti_labelstore_misses_total"].Samples[0].Value, bought.Samples[0].Value)
	}
}

// scrapeMetrics fetches /metrics, verifies the exact Prometheus 0.0.4
// content type, and parses the full exposition the way a scraper would.
func scrapeMetrics(t *testing.T, url string) map[string]*tasti.PromFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	const wantCT = "text/plain; version=0.0.4; charset=utf-8"
	if ct := resp.Header.Get("Content-Type"); ct != wantCT {
		t.Errorf("content type = %q, want %q", ct, wantCT)
	}
	fams, err := tasti.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	return fams
}

// TestStatusHealthAndIngestTrace exercises the full observability surface of
// an ingest-enabled server: /admin/status health collection, the readiness
// ride-along fields, the build-info and health gauges on /metrics, the
// server-side ack histogram, and an ingest trace showing the durability
// pipeline — decode, submit, wal/fsync, and the late-landing apply span.
func TestStatusHealthAndIngestTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts := walServer(t, func(o *serverOptions) {
		o.traceSample = 1
	})
	_ = srv

	extra, err := tasti.GenerateDataset("night-street", 16, 99)
	if err != nil {
		t.Fatal(err)
	}
	resp := postIngest(t, ts.URL, ingestPayload(t, extra, 0, 16))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitForRecords(t, ts.URL, 916)
	postQuery(t, ts.URL, "aggregate", `{"class":"car","err":0.2}`, "")

	// /admin/status collects fresh health.
	resp, err = http.Get(ts.URL + "/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Status          string  `json:"status"`
		Version         string  `json:"version"`
		Go              string  `json:"go"`
		Kernel          string  `json:"kernel"`
		TraceSampleRate float64 `json:"trace_sample_rate"`
		TracesRetained  int     `json:"traces_retained"`
		Ledger          struct {
			Requests int64 `json:"requests"`
			Records  int64 `json:"records"`
		} `json:"ledger"`
		Health *healthSnapshot `json:"health"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Status != "ready" || status.Version != tasti.Version || status.Go == "" || status.Kernel == "" {
		t.Errorf("status identity = %+v", status)
	}
	if status.TraceSampleRate != 1 || status.TracesRetained < 2 {
		t.Errorf("status tracing = rate %v retained %d", status.TraceSampleRate, status.TracesRetained)
	}
	if status.Ledger.Requests < 2 {
		t.Errorf("status ledger books %d requests, want >= 2", status.Ledger.Requests)
	}
	h := status.Health
	if h == nil {
		t.Fatal("status has no health snapshot")
	}
	if h.Records != 916 || h.Shards != 1 {
		t.Errorf("health shape = %+v", h)
	}
	if h.RadiusP50 > h.RadiusP90 || h.RadiusP90 > h.RadiusP99 {
		t.Errorf("radius quantiles not monotone: %v %v %v", h.RadiusP50, h.RadiusP90, h.RadiusP99)
	}
	if h.Drift == nil || h.Drift.Baseline <= 0 {
		t.Errorf("health drift = %+v", h.Drift)
	}
	if h.WAL == nil {
		t.Fatal("health has no WAL section")
	}
	if h.WAL.LagRecords != 16 || h.WAL.Segments < 1 || h.WAL.Bytes <= 0 {
		t.Errorf("WAL lag = %+v, want 16 unsnapshotted records", h.WAL)
	}

	// The stored snapshot rides along on /readyz.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready := decodeBody(t, resp)
	if _, ok := ready["health_age_seconds"]; !ok {
		t.Errorf("/readyz missing health_age_seconds: %v", ready)
	}
	if lag, ok := ready["wal_lag_records"]; !ok || lag.(float64) != 16 {
		t.Errorf("/readyz wal_lag_records = %v, want 16", ready["wal_lag_records"])
	}

	// Gauges and the server-side ack histogram land on /metrics.
	fams := scrapeMetrics(t, ts.URL)
	info := fams["tasti_build_info"]
	if info == nil || len(info.Samples) != 1 || info.Samples[0].Value != 1 {
		t.Fatalf("tasti_build_info = %+v", info)
	}
	for _, label := range []string{"version", "go", "kernel", "shards", "snapshot"} {
		if info.Samples[0].Labels[label] == "" {
			t.Errorf("tasti_build_info missing label %q: %v", label, info.Samples[0].Labels)
		}
	}
	if info.Samples[0].Labels["version"] != tasti.Version {
		t.Errorf("build_info version = %q, want %q", info.Samples[0].Labels["version"], tasti.Version)
	}
	if info.Samples[0].Labels["kernel"] != tasti.KernelName() {
		t.Errorf("build_info kernel = %q, want %q", info.Samples[0].Labels["kernel"], tasti.KernelName())
	}
	if fams["tasti_index_reps"] == nil {
		t.Error("/metrics is missing tasti_index_reps")
	}
	for name := range fams {
		if strings.HasPrefix(name, "tasti_shard_") {
			t.Errorf("/metrics carries the per-shard series %s", name)
		}
	}
	if fam := fams["tasti_wal_lag_records"]; fam == nil || fam.Samples[0].Value != 16 {
		t.Errorf("tasti_wal_lag_records = %+v", fam)
	}
	for _, name := range []string{"tasti_index_radius", "tasti_traces_retained_total"} {
		if fams[name] == nil {
			t.Errorf("/metrics missing %s", name)
		}
	}
	ack := fams["tasti_ingest_ack_seconds"]
	if ack == nil {
		t.Fatal("tasti_ingest_ack_seconds missing")
	}
	var ackCount float64
	for _, sm := range ack.Samples {
		if strings.HasSuffix(sm.Name, "_count") {
			ackCount = sm.Value
		}
	}
	if ackCount != 1 {
		t.Errorf("ack histogram count = %v, want 1", ackCount)
	}

	// The ingest trace shows the durability pipeline. The apply span lands
	// after the ack (visibility follows durability), so poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr := getTraces(t, ts.URL, "?route=/ingest")
		if tr.Count == 1 {
			root := tr.Traces[0].Root
			if childSpan(root, "apply") != nil {
				for _, stage := range []string{"decode", "submit", "wal/fsync", "apply"} {
					if childSpan(root, stage) == nil {
						t.Errorf("ingest trace missing %q span (have %v)", stage, spanNames(root))
					}
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("ingest trace never showed its apply span")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And its ledger entry books the appended records under kind "ingest".
	resp, err = http.Get(ts.URL + "/admin/ledger")
	if err != nil {
		t.Fatal(err)
	}
	var snap tasti.LedgerSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, e := range snap.Recent {
		if e.Kind == "ingest" {
			found = true
			if e.Records != 16 || e.Status != http.StatusOK {
				t.Errorf("ingest ledger entry = %+v", e)
			}
		}
	}
	if !found {
		t.Error("no ingest entry in the ledger")
	}
}

// TestTelemetryOnOffBitwise pins the observability plane's core invariant:
// tracing every request versus tracing none changes no result bit, at every
// worker count. All four servers (2 worker counts x on/off, three query
// types each) must produce byte-identical response bodies.
func TestTelemetryOnOffBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	queries := []struct{ kind, body string }{
		{"aggregate", `{"class":"car","err":0.2}`},
		{"select", `{"class":"car","count":1,"budget":80,"recall":0.9}`},
		{"limit", `{"class":"car","count":3,"k":5}`},
	}
	// canonical[kind] is the first-seen body; every other server must match.
	canonical := map[string][]byte{}
	for _, par := range []int{1, 4} {
		for _, sample := range []float64{1, 0} {
			srv, err := newServer(serverOptions{
				dataset: "night-street", size: 400, train: 80, reps: 64, seed: 3,
				parallelism: par, traceSample: sample,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.handler())
			for _, q := range queries {
				got := postQuery(t, ts.URL, q.kind, q.body, "")
				if want, ok := canonical[q.kind]; !ok {
					canonical[q.kind] = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("par=%d sample=%v: %s response diverges:\n got %s\nwant %s",
						par, sample, q.kind, got, want)
				}
			}
			ts.Close()
		}
	}
}
