package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/labeler"
	"repro/internal/query/supg"
	"repro/internal/shard"
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

// annotationAnswer answers an aggregate or select request in process the way
// everything but the server does — tastiquery, the experiments, bench/'s
// traced replay: an uncached propagation over the published version, the
// annotation-taking estimator entry, the bare target labeler — rendered the
// way the handler renders it.
func annotationAnswer(t *testing.T, srv *server, route, body string) []byte {
	t.Helper()
	var req queryRequest
	rec := httptest.NewRecorder()
	if !srv.decode(rec, httptest.NewRequest(http.MethodPost, "/query/"+route, strings.NewReader(body)), &req) {
		t.Fatalf("decoding %s: %s", body, rec.Body)
	}
	q, v := srv.spec(req), srv.index.Pin()
	switch route {
	case "aggregate":
		proxy, err := v.Propagate(q.score.Score)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tasti.EstimateAggregate(tasti.AggregateOptions{
			ErrTarget: req.Err, Delta: 0.05, MinSamples: 100, Seed: srv.seed + 1,
		}, v.NumRecords(), proxy, q.score.Score, srv.target)
		if err != nil {
			t.Fatal(err)
		}
		writeJSON(rec, http.StatusOK, aggregateBody{
			Degraded: res.Degraded, Estimate: res.Estimate, HalfWidth: res.HalfWidth, LabelCalls: res.LabelerCalls,
		})
	case "select":
		proxy, err := v.Propagate(q.match.Score)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tasti.SelectWithRecall(tasti.SelectOptions{
			Budget: req.Budget, Target: req.Recall, Delta: 0.05, Seed: srv.seed + 2,
		}, v.NumRecords(), proxy, q.pred, srv.target)
		if err != nil {
			t.Fatal(err)
		}
		writeJSON(rec, http.StatusOK, selectBody{
			Degraded: res.Degraded, LabelCalls: res.OracleCalls, Returned: len(res.Returned),
			SampleIDs: res.Returned[:min(20, len(res.Returned))], Threshold: finite(res.Threshold),
		})
	default:
		t.Fatalf("no annotation-path answer for /query/%s", route)
	}
	return rec.Body.Bytes()
}

// checkSelectionReaders holds the served select's two readers of its returned
// set to the set itself: over srv's column of the request's match scorer,
// Len and IDs(20) of the Selection must be len(Returned) and
// Returned[:min(20, len)] of the one-shot SelectWithRecall over the same
// scores — with an ample labeler, and with one whose budget runs out a third
// of the way into the sample. (A recall-target set is never empty over this
// corpus; TestQueryBodiesEncodeAsMaps renders the empty ones.)
func checkSelectionReaders(t *testing.T, srv *server, body string) {
	t.Helper()
	var req queryRequest
	rec := httptest.NewRecorder()
	if !srv.decode(rec, httptest.NewRequest(http.MethodPost, "/query/select", strings.NewReader(body)), &req) {
		t.Fatalf("decoding %s: %s", body, rec.Body)
	}
	q, v := srv.spec(req), srv.index.Pin()
	col, _, err := v.Column(q.match, shard.ColumnWeighted)
	if err != nil {
		t.Fatal(err)
	}
	opts := tasti.SelectOptions{Budget: req.Budget, Target: req.Recall, Delta: 0.05, Seed: srv.seed + 2}
	for _, labelBudget := range []int64{0, int64(req.Budget / 3)} {
		newLab := func() tasti.Labeler {
			if labelBudget == 0 {
				return srv.target
			}
			return labeler.NewBudgeted(srv.target, labelBudget)
		}
		name := fmt.Sprintf("%s label budget %d", body, labelBudget)
		lab := newLab()
		sel, err := col.Design().RecallTargetSelection(opts, supg.MatchFunc(func(id int) (bool, error) {
			ann, err := lab.Label(id)
			return err == nil && q.pred(ann), err
		}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := tasti.SelectWithRecall(opts, v.NumRecords(), col.Scores, q.pred, newLab())
		if err != nil {
			t.Fatal(err)
		}
		if sel.Degraded != (labelBudget > 0) || want.Degraded != sel.Degraded {
			t.Errorf("%s: degraded %v, one-shot %v", name, sel.Degraded, want.Degraded)
		}
		if got, head := sel.IDs(20), want.Returned[:min(20, len(want.Returned))]; sel.Len() != len(want.Returned) || !slices.Equal(got, head) || (got == nil) != (head == nil) {
			t.Errorf("%s: Len %d and head %v, one-shot %d records headed %v", name, sel.Len(), got, len(want.Returned), head)
		}
	}
}

// TestQueryBodiesEncodeAsMaps holds each query route's typed body to the
// map[string]interface{} the handler used to encode, value for value: the
// same status and the same bytes through writeJSON — a non-finite threshold
// as null, an empty select's and an empty limit's ID lists as null (and an
// empty non-nil list as []), and a NaN estimate or an infinite half-width as
// the same 500.
func TestQueryBodiesEncodeAsMaps(t *testing.T) {
	// threshold is finiteOrNil, the select map's rendering of its cutoff.
	threshold := func(v float64) interface{} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil
		}
		return v
	}
	aggregates := []aggregateBody{
		{Estimate: 1.4375, HalfWidth: 0.0625, LabelCalls: 212},
		{Degraded: true, Estimate: -3e-9, HalfWidth: 1e21, LabelCalls: 1},
		{Estimate: math.NaN(), HalfWidth: 0.1, LabelCalls: 100},
		{Estimate: 2, HalfWidth: math.Inf(1), LabelCalls: 0},
	}
	selects := []struct {
		body selectBody
		tau  float64
	}{
		{selectBody{LabelCalls: 200, Returned: 3, SampleIDs: []int{4, 9, 11}}, 0.8125},
		{selectBody{LabelCalls: 60, Returned: 790}, math.Inf(-1)},
		{selectBody{Degraded: true, LabelCalls: 7}, math.Inf(1)},
		{selectBody{LabelCalls: 9, Returned: 2, SampleIDs: []int{0, 1}}, math.NaN()},
		{selectBody{LabelCalls: 120, SampleIDs: []int{}}, 0},
	}
	limits := []limitBody{
		{Found: []int{7, 3, 12}, LabelCalls: 14, Cracked: 2},
		{Exhausted: true, LabelCalls: 800},
		{Found: []int{}, Degraded: true, LabelCalls: 3},
	}
	type pair struct {
		name       string
		typed, old interface{}
	}
	var pairs []pair
	for i, b := range aggregates {
		pairs = append(pairs, pair{fmt.Sprint("aggregate ", i), b, map[string]interface{}{
			"estimate": b.Estimate, "half_width": b.HalfWidth, "label_calls": b.LabelCalls, "degraded": b.Degraded,
		}})
	}
	for i, c := range selects {
		b := c.body
		b.Threshold = finite(c.tau)
		pairs = append(pairs, pair{fmt.Sprint("select ", i), b, map[string]interface{}{
			"returned": b.Returned, "threshold": threshold(c.tau), "label_calls": b.LabelCalls,
			"sample_ids": b.SampleIDs, "degraded": b.Degraded,
		}})
	}
	for i, b := range limits {
		pairs = append(pairs, pair{fmt.Sprint("limit ", i), b, map[string]interface{}{
			"found": b.Found, "label_calls": b.LabelCalls, "exhausted": b.Exhausted, "cracked": b.Cracked, "degraded": b.Degraded,
		}})
	}
	var nulls, errors500 int
	for _, p := range pairs {
		typed, old := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(typed, http.StatusOK, p.typed)
		writeJSON(old, http.StatusOK, p.old)
		if typed.Code != old.Code || !bytes.Equal(typed.Body.Bytes(), old.Body.Bytes()) {
			t.Errorf("%s:\n typed %d %s map   %d %s", p.name, typed.Code, typed.Body, old.Code, old.Body)
		}
		nulls += bytes.Count(typed.Body.Bytes(), []byte("null"))
		if typed.Code == http.StatusInternalServerError {
			errors500++
		}
	}
	// Three non-finite thresholds, two empty selects and an empty limit; the
	// NaN estimate and the infinite half-width are the two 500s.
	if nulls != 6 || errors500 != 2 {
		t.Errorf("%d nulls and %d error bodies across the cases, want 6 and 2", nulls, errors500)
	}
}

// knownValues lists what a server's column of sc knows: record → the bits of
// its exact score.
func knownValues(t *testing.T, srv *server, sc tasti.Scorer) map[int]uint64 {
	t.Helper()
	col, hit, err := srv.index.Pin().Column(sc, shard.ColumnWeighted)
	if err != nil || !hit {
		t.Fatalf("column %s: hit=%v err=%v", sc.Name, hit, err)
	}
	known := map[int]uint64{}
	for id := range col.Scores {
		if v, ok := col.Value(id); ok {
			known[id] = math.Float64bits(v)
		}
	}
	return known
}

// TestServedColumnEquivalence answers a mixed schedule in every state a
// request can find the server in and requires the bodies of each shape to be
// byte-identical. Server A answers it twice in a row: the first answer of a
// scoring function propagates and finds the label store cold (its draws are
// bought, scored and recorded in the column), the repeat reads the retained
// column and every draw's exact score out of it. Server B answers it once,
// its label store warmed with everything A's holds: every draw is a store hit
// whose score the column does not know yet. An aggregate or a select must
// also equal the in-process answer over annotations, with no column and no
// store at all. A column is the very slice the uncached call returns and an
// exact score the very number the score function returns, so none of it can
// move an answer. The schedule ends with a crack:true limit, which must drop
// the columns, and the aggregate it was preceded by, which must therefore
// propagate again.
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
		// No record carries 30 cars: no sampled positive, the −Inf fallback.
		{"select", `{"class":"car","count":30,"budget":60,"recall":0.9}`, "w:match/car/30"},
		// 600 draws over 800 records: many records are drawn more than once.
		{"select", `{"class":"bus","count":1,"budget":600,"recall":0.9}`, "w:match/bus/1"},
		{"limit", `{"class":"car","count":1,"k":5}`, "n:count/car"},
		{"limit", `{"class":"bus","count":1,"k":4}`, "n:count/bus"},
		{"limit", `{"class":"car","count":2,"k":8}`, "n:count/car"},
	}
	const crack = `{"class":"car","count":2,"k":20,"crack":true}`
	afterCrack := schedule[0]

	srvA, a := columnServer(t)
	srvB, b := columnServer(t)
	counts := func(s *server) (hits, misses int64) {
		for _, kind := range []string{"weighted", "nearest"} {
			hits += s.reg.Counter(`tasti_proxy_column_requests_total{result="hit",kind="` + kind + `"}`).Value()
			misses += s.reg.Counter(`tasti_proxy_column_requests_total{result="miss",kind="` + kind + `"}`).Value()
		}
		return hits, misses
	}

	built, answers := map[string]bool{}, map[string][]byte{}
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
		srvB.labels.Warm(srvA.labels.Annotations())
		bought := srvB.reg.Counter("tasti_labelstore_misses_total").Value()
		fresh := postQuery(t, b.URL, sh.route, sh.body, "")
		if !bytes.Equal(first, second) || !bytes.Equal(first, fresh) {
			t.Errorf("%s %s:\n cold store  %s warm values %s warm store  %s", sh.route, sh.body, first, second, fresh)
		}
		if now := srvB.reg.Counter("tasti_labelstore_misses_total").Value(); now != bought {
			t.Errorf("%s %s: server B bought %d labels over a store holding everything A's request bought", sh.route, sh.body, now-bought)
		}
		if sh.route != "limit" {
			if inProcess := annotationAnswer(t, srvA, sh.route, sh.body); !bytes.Equal(first, inProcess) {
				t.Errorf("%s %s:\n served     %s in process %s", sh.route, sh.body, first, inProcess)
			}
		}
		answers[sh.body] = first
	}
	if fallback := schedule[6].body; !bytes.Contains(answers[fallback], []byte(`"threshold":null`)) {
		t.Errorf("%s: no −Inf fallback threshold in %s", fallback, answers[fallback])
	}
	if hits, misses := counts(srvA); misses != int64(len(built)) || hits != int64(2*len(schedule)-len(built)) {
		t.Errorf("server A: %d hits %d misses over %d requests on %d columns", hits, misses, 2*len(schedule), len(built))
	}
	if _, misses := counts(srvB); misses != int64(len(built)) {
		t.Errorf("server B: %d misses on %d columns", misses, len(built))
	}
	for _, sh := range schedule {
		if sh.route == "select" {
			checkSelectionReaders(t, srvA, sh.body)
		}
	}
	// Both servers answered the same draws, so their columns have learnt the
	// same exact scores, whichever way each draw's label came; a limit's
	// nearest column learns nothing.
	for _, sc := range []tasti.Scorer{
		srvA.spec(queryRequest{Class: "car", Count: 1}).score, srvA.spec(queryRequest{Class: "bus", Count: 1}).score,
		srvA.spec(queryRequest{Class: "car", Count: 1}).match, srvA.spec(queryRequest{Class: "car", Count: 2}).match,
	} {
		knownA, knownB := knownValues(t, srvA, sc), knownValues(t, srvB, sc)
		if len(knownA) == 0 || !maps.Equal(knownA, knownB) {
			t.Errorf("column %s knows %d exact scores on server A, %d on server B, or different ones", sc.Name, len(knownA), len(knownB))
		}
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
