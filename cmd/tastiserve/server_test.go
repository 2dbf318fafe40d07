package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// testServerOptions configure testServer's server.
var testServerOptions = serverOptions{
	dataset: "night-street", size: 1500, train: 250, reps: 200, seed: 1,
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := newServer(testServerOptions)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts
}

func decodeBody(t *testing.T, resp *http.Response) map[string]interface{} {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServerEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ts := testServer(t)

	// Health.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); body["status"] != "ok" {
		t.Errorf("health = %v", body)
	}

	// Index stats.
	resp, err = http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody(t, resp)
	if stats["records"].(float64) != 1500 {
		t.Errorf("records = %v", stats["records"])
	}
	if stats["representatives"].(float64) != 200 {
		t.Errorf("reps = %v", stats["representatives"])
	}

	// Aggregate.
	resp, err = http.Post(ts.URL+"/query/aggregate", "application/json",
		strings.NewReader(`{"class":"car","err":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	agg := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status %d: %v", resp.StatusCode, agg)
	}
	if agg["estimate"].(float64) < 0 || agg["label_calls"].(float64) <= 0 {
		t.Errorf("aggregate = %v", agg)
	}

	// Select.
	resp, err = http.Post(ts.URL+"/query/select", "application/json",
		strings.NewReader(`{"class":"car","count":1,"budget":100,"recall":0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	sel := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select status %d: %v", resp.StatusCode, sel)
	}
	if sel["returned"].(float64) <= 0 {
		t.Errorf("select = %v", sel)
	}

	// Limit with cracking.
	resp, err = http.Post(ts.URL+"/query/limit", "application/json",
		strings.NewReader(`{"class":"car","count":3,"k":5,"crack":true}`))
	if err != nil {
		t.Fatal(err)
	}
	lim := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit status %d: %v", resp.StatusCode, lim)
	}
	if lim["label_calls"].(float64) <= 0 {
		t.Errorf("limit = %v", lim)
	}

	// Cracking grew the index.
	resp, err = http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	stats2 := decodeBody(t, resp)
	if stats2["representatives"].(float64) < stats["representatives"].(float64) {
		t.Error("representatives shrank after cracking")
	}

	// Two handler defects, pinned on the same server (the build is the
	// expensive part).
	t.Run("SelectWithoutPositives", func(t *testing.T) { testSelectWithoutPositives(t, ts) })
	t.Run("LimitCrackScope", func(t *testing.T) { testLimitCrackScope(t, ts) })
}

func TestServerErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ts := testServer(t)

	// Wrong method.
	resp, err := http.Get(ts.URL + "/query/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET aggregate status = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/index", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST index status = %d", resp.StatusCode)
	}

	// Malformed body.
	resp, err = http.Post(ts.URL+"/query/aggregate", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status = %d", resp.StatusCode)
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

// testSelectWithoutPositives asks for a predicate no record satisfies: no
// sampled record is positive, the recall threshold is -Inf, and the answer
// must still be a decodable body (it used to be 200 over an empty one,
// because encoding/json refuses the infinity after the status is written).
func testSelectWithoutPositives(t *testing.T, ts *httptest.Server) {
	resp, sel := postJSON(t, ts.URL+"/query/select", `{"class":"bus","count":50,"budget":100,"recall":0.9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select status %d: %v", resp.StatusCode, sel)
	}
	if th, ok := sel["threshold"]; !ok || th != nil {
		t.Errorf("threshold = %v (present %v), want null", th, ok)
	}
	if sel["label_calls"].(float64) != 100 || sel["degraded"] != false {
		t.Errorf("select = %v", sel)
	}
}

// TestWriteJSONEncodeFailure checks a value encoding/json refuses becomes a
// 500 with an error body, not the intended status over an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]interface{}{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Errorf("body = %q (%v), want a JSON error", rec.Body.String(), err)
	}
}

// testLimitCrackScope pins what crack:true promotes. A scan that finds its
// matches promotes every record it labeled; an exhausted scan labeled the
// whole corpus, and promotes only the matches it found — not every record.
func testLimitCrackScope(t *testing.T, ts *httptest.Server) {
	reps := func() float64 {
		resp, err := http.Get(ts.URL + "/index")
		if err != nil {
			t.Fatal(err)
		}
		return decodeBody(t, resp)["representatives"].(float64)
	}
	before := reps()

	// Found its matches: every labeled non-representative is promoted, so
	// the identical scan afterwards labels representatives only.
	const broad = `{"class":"car","count":2,"k":20,"crack":true}`
	resp, lim := postJSON(t, ts.URL+"/query/limit", broad)
	if resp.StatusCode != http.StatusOK || lim["exhausted"] != false {
		t.Fatalf("limit status %d: %v", resp.StatusCode, lim)
	}
	cracked := lim["cracked"].(float64)
	if cracked < 1 || cracked > lim["label_calls"].(float64) || reps() != before+cracked {
		t.Fatalf("cracked = %v of %v labeled, representatives %v -> %v", cracked, lim["label_calls"], before, reps())
	}
	_, again := postJSON(t, ts.URL+"/query/limit", broad)
	if again["cracked"].(float64) != 0 || again["label_calls"] != lim["label_calls"] {
		t.Errorf("repeat of a cracked scan = %v, want the same %v labels all promoted already", again, lim["label_calls"])
	}

	// Exhausted: no record holds 50 cars, the scan labels all 1500 records.
	before = reps()
	resp, lim = postJSON(t, ts.URL+"/query/limit", `{"class":"car","count":50,"k":3,"crack":true}`)
	if resp.StatusCode != http.StatusOK || lim["exhausted"] != true || lim["label_calls"].(float64) != 1500 {
		t.Fatalf("limit status %d: %v", resp.StatusCode, lim)
	}
	found, _ := lim["found"].([]interface{})
	if c := lim["cracked"].(float64); c > float64(len(found)) {
		t.Errorf("exhausted scan cracked %v records with %d found", c, len(found))
	}
	if after := reps(); after > before+float64(len(found)) {
		t.Errorf("representatives %v -> %v after an exhausted scan over 1500 records", before, after)
	}
}
