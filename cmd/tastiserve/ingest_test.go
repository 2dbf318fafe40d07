package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/tasti"
)

// walServerOptions returns a small corpus configuration with streaming
// ingest enabled; mutate applies test-specific overrides before the build.
func walServerOptions(t *testing.T, mutate func(*serverOptions)) serverOptions {
	t.Helper()
	opts := serverOptions{
		dataset: "night-street", size: 900, train: 150, reps: 120, seed: 1,
		walDir: filepath.Join(t.TempDir(), "wal"),
	}
	if mutate != nil {
		mutate(&opts)
	}
	return opts
}

func walServer(t *testing.T, mutate func(*serverOptions)) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(walServerOptions(t, mutate))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.closeIngest)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// ingestPayload pulls n records from a differently-seeded corpus so the
// appended features are valid but novel, and wraps their ground truth in the
// wire envelope.
func ingestPayload(t *testing.T, src *tasti.Dataset, lo, n int) []byte {
	t.Helper()
	recs := make([]ingestRecord, n)
	for i := 0; i < n; i++ {
		env, err := tasti.AnnotationEnvelopeOf(src.Truth[lo+i])
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = ingestRecord{Features: src.Records[lo+i].Features, Annotation: env}
	}
	data, err := json.Marshal(ingestRequest{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postIngest(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// indexRecords polls /index until the serving record count reaches want —
// applyIngest makes acked records queryable asynchronously after the WAL
// fsync, so a freshly acked batch may lag the response by a beat.
func waitForRecords(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last float64
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/index")
		if err != nil {
			t.Fatal(err)
		}
		stats := decodeBody(t, resp)
		if last = stats["records"].(float64); int(last) == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("index serves %d records, want %d", int(last), want)
}

func TestIngestDisabledWithoutWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(`{"records":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("ingest without -wal-dir: status %d, want 501", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/admin/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("refresh without -wal-dir: status %d, want 501", resp.StatusCode)
	}
}

// TestIngestRejections pins the request-validation status codes: the
// durability path must refuse anything it could not faithfully replay.
func TestIngestRejections(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts := walServer(t, func(o *serverOptions) {
		o.ingestMaxBody = 8192
		o.ingestTenantPending = 4
	})
	extra, err := tasti.GenerateDataset("night-street", 64, 99)
	if err != nil {
		t.Fatal(err)
	}

	get, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", get.StatusCode)
	}

	badBodies := map[string]string{
		"malformed JSON": `{"records":`,
		"no records":     `{"records":[]}`,
		"wrong dim":      `{"records":[{"features":[1,2,3],"annotation":{"kind":"video","video":{}}}]}`,
		"wrong kind": string(func() []byte {
			rec := ingestRecord{Features: extra.Records[0].Features}
			env, _ := tasti.AnnotationEnvelopeOf(tasti.TextAnnotation{Operator: "SELECT"})
			rec.Annotation = env
			b, _ := json.Marshal(ingestRequest{Records: []ingestRecord{rec}})
			return b
		}()),
		"empty envelope": string(func() []byte {
			b, _ := json.Marshal(ingestRequest{Records: []ingestRecord{{Features: extra.Records[0].Features}}})
			return b
		}()),
	}
	for name, body := range badBodies {
		resp := postIngest(t, ts.URL, []byte(body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// A batch bigger than -ingest-max-body answers 413.
	big := ingestPayload(t, extra, 0, 16)
	if len(big) <= 8192 {
		t.Fatalf("oversize payload is only %d bytes", len(big))
	}
	resp := postIngest(t, ts.URL, big)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413", resp.StatusCode)
	}

	// A single batch over the per-tenant pending cap could never be
	// admitted, so it answers 413 (split the batch), not a 429 whose
	// Retry-After would have the client retry forever; a small batch from
	// the same tenant still lands.
	over := ingestPayload(t, extra, 0, 5)
	if len(over) > 8192 {
		t.Fatalf("tenant-cap payload tripped the body limit first (%d bytes)", len(over))
	}
	resp = postIngest(t, ts.URL, over)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("batch over tenant cap: status %d, want 413", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("413 with a Retry-After hint")
	}
	resp = postIngest(t, ts.URL, ingestPayload(t, extra, 0, 2))
	ok := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid batch after rejections: status %d: %v", resp.StatusCode, ok)
	}
	if int(ok["base"].(float64)) != srv.opts.size || int(ok["count"].(float64)) != 2 {
		t.Errorf("ack = %v, want base %d count 2", ok, srv.opts.size)
	}
	waitForRecords(t, ts.URL, srv.opts.size+2)
}

// TestTenantLimiter is the 429 side of the per-tenant cap: a batch that
// fits the cap but not beside what the tenant already has pending is
// refused until that drains, while other tenants keep writing.
func TestTenantLimiter(t *testing.T) {
	l := tenantLimiter{cap: 4}
	if !l.reserve("a", 3) {
		t.Fatal("first batch under the cap refused")
	}
	if l.reserve("a", 2) {
		t.Fatal("3 pending + 2 admitted past a cap of 4")
	}
	if !l.reserve("b", 4) {
		t.Fatal("another tenant's batch refused")
	}
	if !l.reserve("a", 1) {
		t.Fatal("3 pending + 1 refused under a cap of 4")
	}
	l.release("a", 4)
	if !l.reserve("a", 2) {
		t.Fatal("batch refused after the tenant drained")
	}
}

// TestIngestSurvivesRestart is the durability acceptance test: every acked
// record must still be served after the process goes away and a new one
// boots over the same WAL directory and snapshot.
func TestIngestSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := walServerOptions(t, func(o *serverOptions) {
		o.snapshotPath = filepath.Join(t.TempDir(), "index.snap")
	})
	srv, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	extra, err := tasti.GenerateDataset("night-street", 64, 99)
	if err != nil {
		t.Fatal(err)
	}

	const appended = 40
	for lo := 0; lo < appended; lo += 10 {
		resp := postIngest(t, ts.URL, ingestPayload(t, extra, lo, 10))
		body := decodeBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: status %d: %v", resp.StatusCode, body)
		}
		if int(body["base"].(float64)) != opts.size+lo {
			t.Fatalf("batch at %d acked base %v", lo, body["base"])
		}
	}
	waitForRecords(t, ts.URL, opts.size+appended)

	// Simulate the process dying after the last ack: stop the listener,
	// seal the WAL, and boot a fresh server over the same directories.
	ts.Close()
	srv.closeIngest()
	srv2, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.closeIngest)
	ts2 := httptest.NewServer(srv2.handler())
	t.Cleanup(ts2.Close)

	waitForRecords(t, ts2.URL, opts.size+appended)
	resp, err := http.Post(ts2.URL+"/query/aggregate", "application/json",
		strings.NewReader(`{"class":"car","err":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	agg := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after restart: status %d: %v", resp.StatusCode, agg)
	}

	// The replayed index must be able to keep ingesting where the WAL left
	// off — record IDs continue, no fork.
	resp = postIngest(t, ts2.URL, ingestPayload(t, extra, appended, 5))
	ack := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after restart: status %d: %v", resp.StatusCode, ack)
	}
	if int(ack["base"].(float64)) != opts.size+appended {
		t.Errorf("post-restart ack base = %v, want %d", ack["base"], opts.size+appended)
	}
}

// TestAdminRefreshPersistsAndTruncates drives the full drift lifecycle by
// hand: ingest, force a refresh, and check the re-crack grew the index, the
// snapshot pair was saved, covered WAL segments were removed, and a restart
// boots from the snapshot without replaying.
func TestAdminRefreshPersistsAndTruncates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := walServerOptions(t, func(o *serverOptions) {
		o.snapshotPath = filepath.Join(t.TempDir(), "index.snap")
		o.refreshBudget = 8
	})
	srv, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	extra, err := tasti.GenerateDataset("night-street", 80, 99)
	if err != nil {
		t.Fatal(err)
	}

	const appended = 60
	resp := postIngest(t, ts.URL, ingestPayload(t, extra, 0, appended))
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %v", resp.StatusCode, body)
	}
	waitForRecords(t, ts.URL, opts.size+appended)
	statsResp, err := http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	repsBefore := decodeBody(t, statsResp)["representatives"].(float64)

	resp, err = http.Post(ts.URL+"/admin/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh: status %d: %v", resp.StatusCode, ref)
	}
	if ref["cracked"].(float64) <= 0 {
		t.Errorf("refresh cracked %v records, want > 0", ref["cracked"])
	}
	if ref["snapshot_saved"] != true {
		t.Errorf("refresh did not save the snapshot: %v", ref)
	}
	statsResp, err = http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	if repsAfter := decodeBody(t, statsResp)["representatives"].(float64); repsAfter <= repsBefore {
		t.Errorf("representatives %v after refresh, %v before; re-crack added none", repsAfter, repsBefore)
	}

	// Snapshot coverage reclaimed the appended records' WAL segments: only
	// the active (post-truncation) segment may remain.
	segs, err := filepath.Glob(filepath.Join(opts.walDir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("WAL holds %d segments after refresh, want 1 (active): %v", len(segs), segs)
	}

	// Reboot: the snapshot pair alone must reproduce the extended corpus.
	ts.Close()
	srv.closeIngest()
	srv2, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv2.closeIngest)
	ts2 := httptest.NewServer(srv2.handler())
	t.Cleanup(ts2.Close)
	waitForRecords(t, ts2.URL, opts.size+appended)
	resp, err = http.Post(ts2.URL+"/query/limit", "application/json",
		strings.NewReader(`{"class":"car","count":3,"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	lim := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after snapshot reboot: status %d: %v", resp.StatusCode, lim)
	}
}

// TestChaosIngestRefreshSwapUnderLoad is the zero-downtime acceptance check
// for online refresh: while query traffic runs flat out and records stream
// in, repeated /admin/refresh hot-swaps must never fail a single query.
func TestChaosIngestRefreshSwapUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, ts := walServer(t, func(o *serverOptions) {
		o.snapshotPath = filepath.Join(t.TempDir(), "index.snap")
		o.refreshBudget = 4
	})
	extra, err := tasti.GenerateDataset("night-street", 256, 99)
	if err != nil {
		t.Fatal(err)
	}

	const clients, iters, refreshes = 4, 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*iters+iters+refreshes)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Post(ts.URL+"/query/aggregate", "application/json",
					strings.NewReader(`{"class":"car","err":0.5}`))
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query during ingest+refresh: status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Post(ts.URL+"/ingest", "application/json",
				bytes.NewReader(ingestPayload(t, extra, i*8, 8)))
			if err != nil {
				errs <- err
				continue
			}
			resp.Body.Close()
			// 429 under deliberate overload is the designed backpressure
			// answer, not a failure.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				errs <- fmt.Errorf("ingest under load: status %d", resp.StatusCode)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < refreshes; i++ {
			resp, err := http.Post(ts.URL+"/admin/refresh", "application/json", nil)
			if err != nil {
				errs <- err
				continue
			}
			resp.Body.Close()
			// 409 marks two refreshes colliding; the loser's index serves on.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				errs <- fmt.Errorf("refresh under load: status %d", resp.StatusCode)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
