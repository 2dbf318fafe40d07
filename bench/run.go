package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
	"repro/tasti"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	root, bin string
	w         workload
	sc        scale
	seed      int64
	seconds   time.Duration
	trace     bool
	out       string // span dump path (traced run only; empty skips the dump)
	log       io.Writer
}

// runResult is what one run reports.
type runResult struct {
	endToEnd  metrics
	perLayer  metrics // nil unless traced
	attempted int
	failed    int
	problems  []string
}

func (r runResult) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// pass is everything observed while one child served the schedule.
type pass struct {
	setup        time.Duration
	warm, window []reply
	windowDur    time.Duration
	acks         []ack
	warmMisses   float64            // tasti_labelstore_misses_total after the warm-up pass
	scrape       map[string]float64 // /metrics at the end of the window
	cpu          time.Duration      // child utime+stime over the window
	rssPeakMB    float64
	traces       []tasti.TraceEntry // traced pass only
	healthz      []float64          // µs, traced pass only
}

// replies returns the warm-up pass and the window in schedule order.
func (p *pass) replies() []reply { return append(append([]reply(nil), p.warm...), p.window...) }

// inputs are the generated inputs of a run, shared by its passes.
type inputs struct {
	corpus   *tasti.Dataset
	generate time.Duration
	pool     []shape
	ingest   *tasti.Dataset
	bodies   [][]byte
	interval time.Duration // writer pacing; 0 = closed-loop epilogue
	records  int
	reps     int
}

func makeInputs(cfg runConfig) (*inputs, error) {
	in := &inputs{}
	in.records, in.reps = cfg.sc.corpus(cfg.w)
	t0 := time.Now()
	corpus, err := tasti.GenerateDataset(corpusName, in.records, corpusSeed)
	if err != nil {
		return nil, err
	}
	in.corpus, in.generate = corpus, time.Since(t0)
	in.pool = filterPool(cfg.w.pool, corpus.Truth)
	for _, route := range queryRoutes {
		n := 0
		for _, sh := range in.pool {
			if sh.Route == route {
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("no %s shape has enough positives in a %d-record corpus", route, in.records)
		}
	}
	batches := cfg.sc.epilogueWrites
	if cfg.w.writer {
		batches = int(cfg.sc.writerRate * cfg.seconds.Seconds())
		in.interval = time.Duration(float64(time.Second) / cfg.sc.writerRate)
	}
	in.ingest, err = tasti.GenerateDataset(corpusName, batches*cfg.sc.batchRecords, ingestSeed)
	if err != nil {
		return nil, err
	}
	in.bodies, err = ingestBodies(in.ingest, batches, cfg.sc.batchRecords)
	return in, err
}

// serve starts a child over dir, waits until it is ready, and drives the
// run's schedule against it: the warm-up pass (every distinct query once, on
// a cold label store), then the measured window. traced turns on the
// server's own tracing for every request and collects the spans afterwards.
// afterReady runs once the child answers /readyz, before any query.
func serve(ctx context.Context, cfg runConfig, in *inputs, dir string, traced bool, afterReady func() error) (*pass, error) {
	var extra []string
	if traced {
		extra = []string{"-trace-sample", "1", "-trace-ring", "16384"}
	}
	c, err := startChild(cfg.bin, dir, in.records, in.reps, extra...)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	admin := newClient(1)
	p := &pass{}
	if p.setup, err = c.waitReady(ctx, admin); err != nil {
		return nil, err
	}
	if afterReady != nil {
		if err := afterReady(); err != nil {
			return nil, err
		}
	}

	readers := newClient(cfg.w.conns)
	sched := newSchedule(in.pool, cfg.seed, cfg.w.writer)
	p.warm = runReaders(readers, c.base, sched, cfg.w.conns, func(dealt int) bool { return dealt >= len(in.pool) })
	warm, err := c.scrape(admin)
	if err != nil {
		return nil, err
	}
	p.warmMisses = warm["tasti_labelstore_misses_total"]

	cpu0, _, err := c.procUsage()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if cfg.w.writer {
		// The reader loops until the writer's fixed schedule has been sent.
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			p.acks = runWriter(ctx, newClient(1), c.base, in.bodies, in.interval)
		}()
		p.window = runReaders(readers, c.base, sched, cfg.w.conns, func(int) bool {
			select {
			case <-writerDone:
				return true
			default:
				return ctx.Err() != nil
			}
		})
		<-writerDone
	} else {
		p.window = runReaders(readers, c.base, sched, cfg.w.conns, func(int) bool {
			return time.Since(start) >= cfg.seconds || ctx.Err() != nil
		})
	}
	if len(p.window) == 0 {
		return nil, fmt.Errorf("the measured window is empty")
	}
	last := p.window[len(p.window)-1]
	for _, r := range p.window {
		if r.start.Add(r.took).After(last.start.Add(last.took)) {
			last = r
		}
	}
	p.windowDur = last.start.Add(last.took).Sub(start)
	cpu1, rss, err := c.procUsage()
	if err != nil {
		return nil, err
	}
	p.cpu, p.rssPeakMB = cpu1-cpu0, rss
	if p.scrape, err = c.scrape(admin); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if !cfg.w.writer {
		p.acks = runWriter(ctx, newClient(1), c.base, in.bodies, 0)
	}

	if traced {
		body, err := c.call(admin, http.MethodGet, "/admin/traces")
		if err != nil {
			return nil, err
		}
		var tr struct {
			Traces []tasti.TraceEntry `json:"traces"`
		}
		if err := json.Unmarshal(body, &tr); err != nil {
			return nil, fmt.Errorf("/admin/traces: %w", err)
		}
		p.traces = tr.Traces
		for i := 0; i < 200; i++ {
			t := time.Now()
			if _, err := c.call(admin, http.MethodGet, "/healthz"); err != nil {
				return nil, err
			}
			p.healthz = append(p.healthz, us(time.Since(t)))
		}
	}
	return p, c.stop()
}

// restart boots a child over the dirs the first one left behind — snapshot
// load plus WAL replay — and checks durability: every acked record must be
// in the index. It returns the time from process start to ready. With
// refresh set it also times one POST /admin/refresh.
func restart(ctx context.Context, cfg runConfig, in *inputs, dir string, acked int, refresh bool) (ready, refreshed time.Duration, err error) {
	c, err := startChild(cfg.bin, dir, in.records, in.reps)
	if err != nil {
		return 0, 0, err
	}
	defer c.kill()
	admin := newClient(1)
	if ready, err = c.waitReady(ctx, admin); err != nil {
		return 0, 0, err
	}
	body, err := c.call(admin, http.MethodGet, "/index")
	if err != nil {
		return 0, 0, err
	}
	var ix struct {
		Records int `json:"records"`
	}
	if err := json.Unmarshal(body, &ix); err != nil {
		return 0, 0, fmt.Errorf("/index: %w", err)
	}
	if want := in.records + acked; ix.Records != want {
		return 0, 0, fmt.Errorf("durability: %d records after restart, want %d base + %d acked", ix.Records, in.records, acked)
	}
	if refresh {
		t := time.Now()
		if _, err := c.call(admin, http.MethodPost, "/admin/refresh"); err != nil {
			return 0, 0, err
		}
		refreshed = time.Since(t)
	}
	return ready, refreshed, c.stop()
}

// runWorkload runs one workload once: a cold child serves the schedule, a
// second child restarts on its dirs, and — traced — a third serves the same
// schedule with server tracing on, followed by the in-process layer replay
// and the fixed probes.
func runWorkload(ctx context.Context, cfg runConfig) (runResult, error) {
	var res runResult
	tmp, err := os.MkdirTemp(filepath.Join(cfg.root, buildDir), "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	in, err := makeInputs(cfg)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.log, "  corpus %s/%d records, %d reps; round of %d shapes; %d ingest batches of %d\n",
		corpusName, in.records, in.reps, len(in.pool), len(in.bodies), cfg.sc.batchRecords)

	// The traced pass and the replay start from a copy of the cold build's
	// snapshot, taken before the first query: the index exactly as built.
	cold, traced := filepath.Join(tmp, "cold"), filepath.Join(tmp, "traced")
	for _, d := range []string{cold, traced} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return res, err
		}
	}
	var keepSnapshot func() error
	if cfg.trace {
		keepSnapshot = func() error { return copyFile(filepath.Join(cold, "ix.snap"), filepath.Join(traced, "ix.snap")) }
	}
	p, err := serve(ctx, cfg, in, cold, false, keepSnapshot)
	if err != nil {
		return res, fmt.Errorf("cold pass: %w", err)
	}

	chk := newChecker(in.pool, !cfg.w.writer, in.corpus, in.ingest)
	acked := 0
	for _, a := range p.acks {
		res.attempted++
		n, err := chk.ack(a, cfg.sc.batchRecords)
		if err != nil {
			res.failed++
			chk.problem("ingest batch %d: %v", a.batch, err)
		}
		acked += n
	}
	var warmLabels int64
	for i, r := range p.replies() {
		res.attempted++
		labels, err := chk.reply(r)
		if err != nil {
			res.failed++
			chk.problem("request %d %v: %v", r.req.Seq, in.pool[r.req.Shape], err)
		}
		if i < len(p.warm) {
			warmLabels += labels
		}
	}

	// The restart is the durability check. It is too short a burst to time
	// steadily (quartile spread up to 28 % of the median across runs), so its
	// time is a per-layer metric: the median of three in a traced run.
	var restarts []float64
	var refreshed time.Duration
	n := 1
	if cfg.trace {
		n = 3
	}
	for i := 0; i < n; i++ {
		var ready time.Duration
		ready, refreshed, err = restart(ctx, cfg, in, cold, acked, cfg.trace && i == n-1)
		if err != nil {
			return res, fmt.Errorf("restart: %w", err)
		}
		restarts = append(restarts, ms(ready))
	}

	res.endToEnd = metrics{}
	if err := endToEnd(res.endToEnd, cfg, in, p, float64(warmLabels)); err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.log, "  window %.2fs: %d answers; warm-up %d; ingest %d batches, max generator lag %.2f ms\n",
		p.windowDur.Seconds(), len(p.window), len(p.warm), len(p.acks), maxLag(p.acks))
	fmt.Fprintf(cfg.log, "  fail_share %d/%d; durability: %d base + %d acked records present after restart\n",
		res.failed, res.attempted, in.records, acked)
	if !cfg.w.writer {
		fmt.Fprintf(cfg.log, "  answers_digest %s\n", chk.digest())
	}

	if cfg.trace {
		res.perLayer = metrics{}
		res.perLayer["tastiserve.restart_ms"] = metric{Value: stats.Quantile(restarts, 0.5), Unit: "ms", N: len(restarts)}
		res.perLayer.set("tastiserve.refresh_ms", ms(refreshed), "ms")
		tp, err := serve(ctx, cfg, in, traced, true, nil)
		if err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
		for _, r := range tp.replies() {
			res.attempted++
			if err := r.failure(); err != nil {
				res.failed++
				chk.problem("traced request %d: %v", r.req.Seq, err)
			}
		}
		if err := serverLayers(res.perLayer, in, p, tp); err != nil {
			return res, err
		}
		if err := replayLayers(res.perLayer, cfg, in, p, filepath.Join(traced, "ix.snap"), tmp, chk); err != nil {
			return res, err
		}
	}
	res.problems = chk.finish()
	return res, nil
}

func maxLag(acks []ack) float64 {
	worst := time.Duration(0)
	for _, a := range acks {
		worst = max(worst, a.lag)
	}
	return ms(worst)
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// endToEndNames is the print order of the end-to-end metrics; BENCHMARK.json
// lists the same names with their bounds.
var endToEndNames = []string{
	"qps", "lat_iqm_ms", "lat_p95_ms",
	"agg_iqm_ms", "agg_p90_ms", "limit_iqm_ms",
	"label_requests_per_answer", "oracle_calls_per_answer",
	"setup_s", "rss_peak_mb",
}

// okLatencies returns the latencies in ms of the window's 200 answers, all
// routes under "" and per route.
func okLatencies(pool []shape, window []reply) map[string][]float64 {
	lat := map[string][]float64{}
	for _, r := range window {
		if r.failure() != nil {
			continue
		}
		lat[""] = append(lat[""], ms(r.took))
		route := pool[r.req.Shape].Route
		lat[route] = append(lat[route], ms(r.took))
	}
	return lat
}

func endToEnd(m metrics, cfg runConfig, in *inputs, p *pass, warmLabels float64) error {
	lat := okLatencies(in.pool, p.window)
	m.set("qps", float64(len(lat[""]))/p.windowDur.Seconds(), "req/s")
	// The typical latency of a route is an interquartile mean, not a median:
	// a route's samples are a handful of shapes with distinct costs (and, on
	// two connections, each plus the request it queued behind), and a median
	// that sits between two of them jumps from run to run.
	for name, route := range map[string]string{
		"lat_iqm_ms": "", "agg_iqm_ms": routeAggregate, "limit_iqm_ms": routeLimit,
	} {
		if err := m.setIQM(name, lat[route], "ms"); err != nil {
			return err
		}
	}
	// The tails sit inside the doubled shape's plateau (see workload.go).
	if err := m.setPercentile("lat_p95_ms", lat[""], 0.95, "ms", cfg.sc.floors); err != nil {
		return err
	}
	if err := m.setPercentile("agg_p90_ms", lat[routeAggregate], 0.9, "ms", cfg.sc.floors); err != nil {
		return err
	}
	// Both label counts are taken over the warm-up pass: every distinct query
	// answered once from a cold label store. They do not depend on how many
	// requests the window fits, so they repeat exactly.
	answers := float64(len(p.warm))
	m.set("label_requests_per_answer", warmLabels/answers, "count")
	m.set("oracle_calls_per_answer", p.warmMisses/answers, "count")
	m.set("setup_s", p.setup.Seconds(), "s")
	m.set("rss_peak_mb", p.rssPeakMB, "MB")
	return nil
}
