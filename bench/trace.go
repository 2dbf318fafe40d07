package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/tasti"
)

// span is one timed call into a layer during the in-process replay. Parent
// indexes spanLog.spans (-1 for a request's root); Req is the request's
// schedule position. N carries the call's work count where it has one
// (samples labelled, representatives cracked).
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	N       int64  `json:"n,omitempty"`
}

// spanLog keeps every span in memory; dump writes them out when the run
// ends. Single-goroutine: the replay is sequential.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, req, parent int) int {
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, StartNS: time.Since(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].EndNS = time.Since(l.t0).Nanoseconds() }

// add records a span whose duration was accumulated elsewhere (the labeler's
// many short calls become one span per request), anchored at its parent's
// start.
func (l *spanLog) add(name string, req, parent int, d time.Duration, n int64) int {
	start := l.spans[parent].StartNS
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, StartNS: start, EndNS: start + d.Nanoseconds(), N: n})
	return len(l.spans) - 1
}

func (l *spanLog) dump(path string) error {
	return tasti.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// selfTimes returns, per span name, each span's duration minus the part its
// children cover, in µs.
func (l *spanLog) selfTimes() map[string][]float64 {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string][]float64{}
	for i, s := range l.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-child[i])/1e3)
	}
	return out
}

// timingLabeler times every call through the label store and, one level
// down, every call that reaches the oracle. A store call during which the
// oracle ran is a miss.
type timingLabeler struct {
	inner tasti.Labeler // the store binding
	down  *timingOracle
	labelTotals
	// the oracle's counters when this labeler was bound
	calls0 int64
	total0 time.Duration
}

type labelTotals struct {
	hits, misses      int64
	hitTime, missTime time.Duration
}

func (t *labelTotals) add(o labelTotals) {
	t.hits += o.hits
	t.misses += o.misses
	t.hitTime += o.hitTime
	t.missTime += o.missTime
}

type timingOracle struct {
	inner tasti.Labeler
	calls int64
	total time.Duration
}

func (o *timingOracle) Label(id int) (tasti.Annotation, error) {
	t := time.Now()
	ann, err := o.inner.Label(id)
	o.total += time.Since(t)
	o.calls++
	return ann, err
}
func (o *timingOracle) Name() string          { return o.inner.Name() }
func (o *timingOracle) Cost() tasti.CostModel { return o.inner.Cost() }

func (l *timingLabeler) Label(id int) (tasti.Annotation, error) {
	before := l.down.calls
	t := time.Now()
	ann, err := l.inner.Label(id)
	d := time.Since(t)
	if l.down.calls != before {
		l.misses++
		l.missTime += d
	} else {
		l.hits++
		l.hitTime += d
	}
	return ann, err
}
func (l *timingLabeler) Name() string          { return l.inner.Name() }
func (l *timingLabeler) Cost() tasti.CostModel { return l.inner.Cost() }

// replayer answers requests in-process through the public functions the
// tastiserve handlers call, with the handlers' options, recording one span
// per call.
type replayer struct {
	ix     *tasti.ShardedIndex
	n      func() int // corpus length, as the handlers read ds.Len()
	store  *tasti.LabelStore
	oracle *timingOracle
	log    *spanLog

	lab labelTotals // across requests
	// labels spent and matches found by the limit scans
	limitLabels, limitFound int64
}

func newReplayer(ix *tasti.ShardedIndex, corpus *tasti.Dataset) *replayer {
	return &replayer{
		ix:     ix,
		n:      corpus.Len,
		store:  tasti.NewLabelStore(tasti.LabelStoreOptions{}),
		oracle: &timingOracle{inner: tasti.NewOracle(corpus, "target", tasti.MaskRCNNCost)},
		log:    &spanLog{t0: time.Now()},
	}
}

// labeler returns a fresh per-request timing labeler over the shared store,
// as queryLabeler binds one per request.
func (r *replayer) labeler() *timingLabeler {
	return &timingLabeler{
		inner: r.store.Bind(r.oracle, nil, "", r.ix.AnnotationOf), down: r.oracle,
		calls0: r.oracle.calls, total0: r.oracle.total,
	}
}

// closeLabeler folds one request's labeler into the log (a "labelstore" span
// under parent, with the oracle's share beneath it) and the totals.
func (r *replayer) closeLabeler(lab *timingLabeler, req, parent int) {
	ls := r.log.add("labelstore", req, parent, lab.hitTime+lab.missTime, lab.hits+lab.misses)
	r.log.add("labeler.oracle", req, ls, r.oracle.total-lab.total0, r.oracle.calls-lab.calls0)
	r.lab.add(lab.labelTotals)
}

// do replays one request and returns the response body tastiserve would
// write for it, byte for byte.
func (r *replayer) do(route string, seq int, body []byte) ([]byte, error) {
	root := r.log.begin("request/"+route, seq, -1)
	defer r.log.end(root)

	// shape carries the fields of tastiserve's request body; the harness
	// always sends the ones a route reads, so the server's defaults never apply.
	sp := r.log.begin("json.decode", seq, root)
	var req shape
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	r.log.end(sp)
	if err != nil {
		return nil, err
	}
	pred := req.holds
	score := tasti.CountScore(req.Class)
	lab := r.labeler()

	var out map[string]interface{}
	switch route {
	case routeAggregate:
		sp = r.log.begin("shard.propagate", seq, root)
		scores, err := r.ix.Propagate(score)
		r.log.end(sp)
		if err != nil {
			return nil, err
		}
		sp = r.log.begin("aggregation.estimate", seq, root)
		res, err := tasti.EstimateAggregate(tasti.AggregateOptions{
			ErrTarget: req.Err, Delta: 0.05, MinSamples: 100, Seed: corpusSeed + 1,
		}, r.n(), scores, score, lab)
		r.log.end(sp)
		if err != nil {
			return nil, err
		}
		r.log.spans[sp].N = res.LabelerCalls
		r.closeLabeler(lab, seq, sp)
		out = map[string]interface{}{
			"estimate": res.Estimate, "half_width": res.HalfWidth,
			"label_calls": res.LabelerCalls, "degraded": res.Degraded,
		}
	case routeSelect:
		sp = r.log.begin("shard.propagate", seq, root)
		scores, err := r.ix.Propagate(tasti.MatchScore(pred))
		r.log.end(sp)
		if err != nil {
			return nil, err
		}
		sp = r.log.begin("supg.select", seq, root)
		res, err := tasti.SelectWithRecall(tasti.SelectOptions{
			Budget: req.Budget, Target: req.Recall, Delta: 0.05, Seed: corpusSeed + 2, Parallelism: 2,
		}, r.n(), scores, pred, lab)
		r.log.end(sp)
		if err != nil {
			return nil, err
		}
		r.log.spans[sp].N = res.OracleCalls
		r.closeLabeler(lab, seq, sp)
		sample := res.Returned
		if len(sample) > 20 {
			sample = sample[:20]
		}
		out = map[string]interface{}{
			"returned": len(res.Returned), "threshold": res.Threshold,
			"label_calls": res.OracleCalls, "sample_ids": sample, "degraded": res.Degraded,
		}
	case routeLimit:
		sp = r.log.begin("shard.propagate_nearest", seq, root)
		scores, dists, err := r.ix.PropagateNearest(score)
		r.log.end(sp)
		if err != nil {
			return nil, err
		}
		sp = r.log.begin("shard.limit_order", seq, root)
		order := r.ix.LimitOrder(scores, dists)
		r.log.end(sp)
		sp = r.log.begin("limitq.scan", seq, root)
		res, err := tasti.FindLimitScan(tasti.LimitOptions{}, req.K, order, pred, lab)
		r.log.end(sp)
		if err != nil {
			return nil, err
		}
		r.log.spans[sp].N = int64(len(res.Found))
		r.limitFound += int64(len(res.Found))
		r.limitLabels += res.OracleCalls
		r.closeLabeler(lab, seq, sp)
		cracked := 0
		if req.Crack {
			sp = r.log.begin("shard.crack", seq, root)
			before := r.ix.RepCount()
			r.ix.CrackAll(res.Labeled)
			cracked = r.ix.RepCount() - before
			r.log.end(sp)
			r.log.spans[sp].N = int64(cracked)
		}
		out = map[string]interface{}{
			"found": res.Found, "label_calls": res.OracleCalls,
			"exhausted": res.Exhausted, "cracked": cracked, "degraded": res.Degraded,
		}
	default:
		return nil, fmt.Errorf("unknown route %q", route)
	}
	sp = r.log.begin("json.encode", seq, root)
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(out)
	r.log.end(sp)
	return buf.Bytes(), err
}

// serverLayers derives the per-layer metrics that are measured from outside
// the server: the spans tastiserve itself records (traced pass tp), and CPU,
// build phases and client-side tails of the untraced cold pass p.
func serverLayers(m metrics, in *inputs, p, tp *pass) error {
	if len(tp.traces) == 0 {
		return fmt.Errorf("traced pass retained no traces")
	}
	spans := map[string][]float64{} // span name -> µs
	var roots, unattributed []float64
	for _, e := range tp.traces {
		if e.Route == "/ingest" {
			continue
		}
		covered := int64(0)
		for _, c := range e.Root.Children {
			covered += c.DurationNS
			spans[c.Name] = append(spans[c.Name], float64(c.DurationNS)/1e3)
		}
		roots = append(roots, float64(e.Root.DurationNS)/1e3)
		unattributed = append(unattributed, float64(e.Root.DurationNS-covered)/1e3)
	}
	for _, name := range []string{"propagate", "estimate", "sample", "order", "scan"} {
		if len(spans[name]) == 0 {
			return fmt.Errorf("no %q span in %d traces", name, len(tp.traces))
		}
		m["tastiserve.span."+name+"_us"] = metric{Value: stats.Quantile(spans[name], 0.5), Unit: "us", N: len(spans[name])}
	}
	// Root minus children: request decode, the wait for the index lock,
	// label-store binding and response encode.
	m["tastiserve.unattributed_us"] = metric{Value: stats.Quantile(unattributed, 0.5), Unit: "us", N: len(unattributed)}
	var client []float64
	for _, r := range tp.replies() {
		if r.failure() == nil {
			client = append(client, us(r.took))
		}
	}
	m.set("tastiserve.client_minus_handler_us", stats.Quantile(client, 0.5)-stats.Quantile(roots, 0.5), "us")
	m["tastiserve.healthz_us"] = metric{Value: stats.Quantile(tp.healthz, 0.5), Unit: "us", N: len(tp.healthz)}

	lat := okLatencies(in.pool, p.window)
	answers := float64(len(lat[""]))
	m.set("tastiserve.cpu_s_per_request", p.cpu.Seconds()/answers, "s")
	m.set("tastiserve.cpu_util", p.cpu.Seconds()/p.windowDur.Seconds(), "cores")
	// One pair of passes: the difference carries the qps noise, and has read
	// anywhere from -8 to +8 %.
	traced := float64(len(okLatencies(in.pool, tp.window)[""])) / tp.windowDur.Seconds()
	untraced := answers / p.windowDur.Seconds()
	m.set("telemetry.trace_overhead_pct", (untraced-traced)/untraced*100, "%")
	// Select latency is the figure neighbour contention moves most (medians
	// +45 %, a quartile spread of 25 % in one block of ten), so it is not
	// gated; nor are the tails the window is too short for (fewer than twice
	// the samples a p90 needs). They are kept visible here.
	if err := m.setIQM("client.select_iqm_ms", lat[routeSelect], "ms"); err != nil {
		return err
	}
	m["client.select_p90_ms"] = metric{Value: stats.Quantile(lat[routeSelect], 0.9), Unit: "ms", N: len(lat[routeSelect])}
	m["client.limit_p90_ms"] = metric{Value: stats.Quantile(lat[routeLimit], 0.9), Unit: "ms", N: len(lat[routeLimit])}
	// Ack latency is the WAL fsync on an idle server and the wait for the
	// query lock on a busy one; both read too noisily on this box to gate
	// (quartile spread 15-30 % of the median), so they are reported here.
	var acks []float64
	for _, a := range p.acks {
		if a.err == nil && a.status == 200 {
			acks = append(acks, ms(a.took))
		}
	}
	if len(acks) == 0 {
		return fmt.Errorf("no ingest batch was acked")
	}
	m["client.ingest_ack_p50_ms"] = metric{Value: stats.Quantile(acks, 0.5), Unit: "ms", N: len(acks)}
	m["client.ingest_ack_p90_ms"] = metric{Value: stats.Quantile(acks, 0.9), Unit: "ms", N: len(acks)}

	// Build phases as the cold child published them.
	phase := func(name string) float64 { return p.scrape["tasti_build_phase_seconds{phase="+name+"}"] * 1e3 }
	m.set("core.build_ms", phase("embed")+phase("train")+phase("cluster"), "ms")
	m.set("core.build.embed_ms", phase("embed"), "ms")
	m.set("core.build.train_ms", phase("train"), "ms")
	m.set("core.build.cluster_select_ms", phase("rep_select"), "ms")
	m.set("core.build.rep_label_ms", phase("rep_label"), "ms")
	m.set("core.build.table_ms", phase("table"), "ms")
	m.set("dataset.generate_ms", ms(in.generate), "ms")
	return nil
}

// replayLayers loads the snapshot the cold child wrote, replays the head of
// the schedule in-process with one span per layer call, checks the replayed
// answers against the HTTP ones, and runs the fixed probes for the layers
// off the query path.
func replayLayers(m metrics, cfg runConfig, in *inputs, p *pass, snapshot, tmp string, chk *checker) error {
	t0 := time.Now()
	var ix *tasti.ShardedIndex
	err := tasti.ReadSnapshotFile(snapshot, func(r io.Reader) error {
		var lerr error
		ix, lerr = tasti.LoadShardedIndex(r)
		return lerr
	})
	if err != nil {
		return fmt.Errorf("loading the child's snapshot: %w", err)
	}
	m.set("snapshot.load_ms", ms(time.Since(t0)), "ms")
	ix.SetParallelism(2)
	st, err := os.Stat(snapshot)
	if err != nil {
		return err
	}
	m.set("snapshot.bytes_per_record", float64(st.Size())/float64(ix.NumRecords()), "B")

	// The probes run first, on clones: the replay's cracks mutate ix.
	if err := probes(m, cfg, in, ix, tmp); err != nil {
		return err
	}

	rp := newReplayer(ix, in.corpus)
	served := p.replies()
	n := min(cfg.sc.replayRequests, len(served))
	for _, hr := range served[:n] {
		sh := in.pool[hr.req.Shape]
		body, err := rp.do(sh.Route, hr.req.Seq, hr.req.Body)
		if err != nil {
			return fmt.Errorf("replaying request %d %v: %w", hr.req.Seq, sh, err)
		}
		// With a concurrent writer the HTTP answer depends on how many
		// appends had been applied; there the replay is timed, not compared.
		if !cfg.w.writer && !bytes.Equal(body, hr.body) {
			chk.problem("replay of request %d %v differs from the HTTP answer:\n    %s    %s", hr.req.Seq, sh, body, hr.body)
		}
	}
	if cfg.out != "" {
		if err := rp.log.dump(cfg.out); err != nil {
			return err
		}
	}

	self := rp.log.selfTimes()
	for _, q := range []struct{ metric, span string }{
		{"shard.propagate_us", "shard.propagate"},
		{"shard.propagate_nearest_us", "shard.propagate_nearest"},
		{"shard.limit_order_us", "shard.limit_order"},
		{"limitq.scan_us", "limitq.scan"},
		{"aggregation.estimate_self_us", "aggregation.estimate"},
		{"supg.select_self_us", "supg.select"},
		{"json.decode_us", "json.decode"},
		{"json.encode_us", "json.encode"},
	} {
		xs := self[q.span]
		if len(xs) == 0 {
			return fmt.Errorf("replay recorded no %q span", q.span)
		}
		m[q.metric] = metric{Value: stats.Quantile(xs, 0.5), Unit: "us", N: len(xs)}
	}
	m.set("limitq.labels_per_found", float64(rp.limitLabels)/float64(max(rp.limitFound, 1)), "count")
	lab := rp.lab
	m.set("labelstore.hit_ns", float64(lab.hitTime.Nanoseconds())/float64(max(lab.hits, 1)), "ns")
	m.set("labelstore.miss_ns", float64(lab.missTime.Nanoseconds())/float64(max(lab.misses, 1)), "ns")
	m.set("labeler.oracle_ns", float64(rp.oracle.total.Nanoseconds())/float64(max(rp.oracle.calls, 1)), "ns")
	m.set("labelstore.hit_rate", float64(lab.hits)/float64(max(lab.hits+lab.misses, 1)), "ratio")
	m.set("labelstore.entries", float64(rp.store.Len()), "count")

	printBusyShares(cfg.log, self, n)
	return nil
}

// printBusyShares prints each replayed layer's share of the replay's busy
// time (the sum of the request roots): the per-layer cost table.
func printBusyShares(w io.Writer, self map[string][]float64, requests int) {
	total := 0.0
	sums := map[string]float64{}
	for name, xs := range self {
		for _, x := range xs {
			sums[name] += x
			total += x
		}
	}
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return sums[names[i]] > sums[names[j]] })
	fmt.Fprintf(w, "  layer replay: %d requests, %.1f ms busy; self time by layer:\n", requests, total/1e3)
	for _, name := range names {
		fmt.Fprintf(w, "    %-28s %9.1f ms %5.1f%%  (%d calls)\n", name, sums[name]/1e3, sums[name]/total*100, len(self[name]))
	}
}
