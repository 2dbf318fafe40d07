package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/tasti"
)

// columnServer is a small two-shard server that traces every request, so the
// column tests can read the cache attribute off the spans.
func columnServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(serverOptions{
		dataset: "taipei", size: 800, train: 120, reps: 100, seed: 1,
		shards: 2, traceSample: 1, traceRing: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newestSpanAttr returns the value of attribute key on the named child span
// of the newest retained trace, "" when either is absent.
func newestSpanAttr(t *testing.T, url, span, key string) string {
	t.Helper()
	all := getTraces(t, url, "")
	if len(all.Traces) == 0 {
		t.Fatal("no trace retained")
	}
	sp := childSpan(all.Traces[len(all.Traces)-1].Root, span)
	if sp == nil {
		return ""
	}
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestServedColumnEquivalence answers a mixed schedule twice in a row on one
// server — the first answer of a scoring function propagates, every later one
// reads the retained column — and once on a fresh server, and requires all
// three bodies of every shape to be byte-identical: a column is the very
// slice the uncached call returns, so a hit cannot move an answer. The
// schedule ends with a crack:true limit, which must drop the columns, and the
// aggregate it was preceded by, which must therefore propagate again.
func TestServedColumnEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	type shape struct{ route, body, column string }
	schedule := []shape{
		{"aggregate", `{"class":"car","err":0.2}`, "w:count/car"},
		{"aggregate", `{"class":"bus","err":0.25}`, "w:count/bus"},
		{"aggregate", `{"class":"car","err":0.3}`, "w:count/car"},
		{"select", `{"class":"car","count":1,"budget":80,"recall":0.9}`, "w:match/car/1"},
		{"select", `{"class":"car","count":2,"budget":120,"recall":0.8}`, "w:match/car/2"},
		{"select", `{"class":"car","count":1,"budget":150,"recall":0.95}`, "w:match/car/1"},
		{"limit", `{"class":"car","count":1,"k":5}`, "n:count/car"},
		{"limit", `{"class":"bus","count":1,"k":4}`, "n:count/bus"},
		{"limit", `{"class":"car","count":2,"k":8}`, "n:count/car"},
	}
	const crack = `{"class":"car","count":2,"k":20,"crack":true}`
	afterCrack := schedule[0]

	srvA, a := columnServer(t)
	srvB, b := columnServer(t)
	counts := func(s *server) (hits, misses int64) {
		return s.reg.Counter(`tasti_proxy_column_requests_total{result="hit"}`).Value(),
			s.reg.Counter(`tasti_proxy_column_requests_total{result="miss"}`).Value()
	}

	built := map[string]bool{}
	for _, sh := range schedule {
		first := postQuery(t, a.URL, sh.route, sh.body, "")
		wantCache := "miss"
		if built[sh.column] {
			wantCache = "hit"
		}
		built[sh.column] = true
		if got := newestSpanAttr(t, a.URL, "propagate", "cache"); got != wantCache {
			t.Errorf("%s %s: propagate span cache=%q, want %q", sh.route, sh.body, got, wantCache)
		}
		second := postQuery(t, a.URL, sh.route, sh.body, "")
		if got := newestSpanAttr(t, a.URL, "propagate", "cache"); got != "hit" {
			t.Errorf("%s %s repeated: propagate span cache=%q, want hit", sh.route, sh.body, got)
		}
		if sh.route == "limit" {
			if got := newestSpanAttr(t, a.URL, "order", "cache"); got != "hit" {
				t.Errorf("%s %s repeated: order span cache=%q, want hit", sh.route, sh.body, got)
			}
		}
		fresh := postQuery(t, b.URL, sh.route, sh.body, "")
		if !bytes.Equal(first, second) || !bytes.Equal(first, fresh) {
			t.Errorf("%s %s:\n miss  %s hit   %s fresh %s", sh.route, sh.body, first, second, fresh)
		}
	}
	if hits, misses := counts(srvA); misses != int64(len(built)) || hits != int64(2*len(schedule)-len(built)) {
		t.Errorf("server A: %d hits %d misses over %d requests on %d columns", hits, misses, 2*len(schedule), len(built))
	}
	if _, misses := counts(srvB); misses != int64(len(built)) {
		t.Errorf("server B: %d misses on %d columns", misses, len(built))
	}
	genBefore := srvA.index.ColumnStats().Generation

	// The cracking limit reads the retained nearest column, then promotes what
	// it labeled: a new generation with nothing retained.
	var cracked struct {
		Cracked int `json:"cracked"`
	}
	crackedA := postQuery(t, a.URL, "limit", crack, "")
	if err := json.Unmarshal(crackedA, &cracked); err != nil || cracked.Cracked == 0 {
		t.Fatalf("crack:true limit promoted nothing (%v): %s", err, crackedA)
	}
	if crackedB := postQuery(t, b.URL, "limit", crack, ""); !bytes.Equal(crackedA, crackedB) {
		t.Errorf("crack:true limit:\n A %s B %s", crackedA, crackedB)
	}
	ix := srvA.index
	if cs := ix.ColumnStats(); cs.Entries != 0 || cs.Generation != genBefore+uint64(cracked.Cracked) {
		t.Errorf("after cracking %d records: %d columns retained, generation %d -> %d",
			cracked.Cracked, cs.Entries, genBefore, cs.Generation)
	}
	first := postQuery(t, a.URL, afterCrack.route, afterCrack.body, "")
	if got := newestSpanAttr(t, a.URL, "propagate", "cache"); got != "miss" {
		t.Errorf("aggregate after the crack: propagate span cache=%q, want miss", got)
	}
	second := postQuery(t, a.URL, afterCrack.route, afterCrack.body, "")
	fresh := postQuery(t, b.URL, afterCrack.route, afterCrack.body, "")
	if !bytes.Equal(first, second) || !bytes.Equal(first, fresh) {
		t.Errorf("aggregate after the crack:\n miss  %s hit   %s fresh %s", first, second, fresh)
	}

	// Each cracking pass re-ranks the corpus, so a repeat may label — and
	// promote — records the last pass never reached. Once a pass promotes
	// nothing, it must have kept the generation and the columns.
	drops := 1 // passes that promoted something each dropped the retained columns once
	for pass := 0; ; pass++ {
		if pass == 8 {
			t.Fatal("8 repeats of the cracking limit each promoted more records")
		}
		gen := ix.ColumnStats().Generation
		if err := json.Unmarshal(postQuery(t, a.URL, "limit", crack, ""), &cracked); err != nil {
			t.Fatal(err)
		}
		cs := ix.ColumnStats()
		if cracked.Cracked > 0 {
			drops++
			continue
		}
		if cs.Generation != gen || cs.Entries == 0 {
			t.Errorf("no-op crack: generation %d -> %d with %d columns retained", gen, cs.Generation, cs.Entries)
		}
		break
	}

	// The status section and the gauges report the same store.
	resp, err := http.Get(a.URL + "/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		ProxyColumns struct {
			Entries    int    `json:"entries"`
			Bytes      int64  `json:"bytes"`
			Generation uint64 `json:"generation"`
			Hits       int64  `json:"hits"`
			Misses     int64  `json:"misses"`
		} `json:"proxy_columns"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	cs := ix.ColumnStats()
	hits, misses := counts(srvA)
	pc := status.ProxyColumns
	if pc.Entries != cs.Entries || pc.Bytes != cs.Bytes || pc.Generation != cs.Generation || pc.Hits != hits || pc.Misses != misses {
		t.Errorf("/admin/status proxy_columns = %+v, store %+v with %d hits %d misses", pc, cs, hits, misses)
	}
	resp, err = http.Get(a.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := tasti.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"tasti_proxy_column_bytes":               float64(cs.Bytes),
		"tasti_index_generation":                 float64(cs.Generation),
		"tasti_proxy_column_invalidations_total": float64(drops),
	} {
		if fam := fams[name]; fam == nil || len(fam.Samples) != 1 || fam.Samples[0].Value != want {
			t.Errorf("/metrics %s = %+v, want %v", name, fam, want)
		}
	}
}

// TestQueryBodyCap: a /query/* body is a handful of scalars, and its class
// names a retained column — so a body over 64 KiB is refused with 413 and a
// JSON error instead of being decoded in full.
func TestQueryBodyCap(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts := columnServer(t)
	huge := `{"class":"` + strings.Repeat("x", 1<<20) + `"}`
	for _, route := range []string{"aggregate", "select", "limit"} {
		resp, err := http.Post(ts.URL+"/query/"+route, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || body["error"] == "" {
			t.Errorf("/query/%s with a 1 MiB class: status %d, body %v (%v), want 413 with a JSON error",
				route, resp.StatusCode, body, err)
		}
	}
	if cs := srv.index.ColumnStats(); cs.Entries != 0 {
		t.Errorf("oversized requests left %d columns behind", cs.Entries)
	}
	// A body inside the cap still decodes: a long class is just a class no
	// box carries.
	ok := `{"class":"` + strings.Repeat("x", 60<<10) + `","err":0.3}`
	resp, err := http.Post(ts.URL+"/query/aggregate", "application/json", strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("60 KiB body: status %d, want 200", resp.StatusCode)
	}
}
