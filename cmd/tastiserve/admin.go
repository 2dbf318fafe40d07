package main

// Observability plane: request-scoped tracing, the per-tenant cost ledger,
// and index-health introspection. Everything here is record-only — nothing
// reads a trace, ledger entry, or health gauge back into query execution, so
// results stay bitwise identical whether or not a request is sampled. See
// docs/OBSERVABILITY.md for the trace/ledger schemas and the
// slow-query runbook.

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/tasti"
)

// reqScope rides the request context from the instrument middleware into the
// handlers: the trace ID (always assigned), the sampled span tree (nil for
// unsampled requests), and the cost tallies the middleware turns into a
// ledger entry when the response is written. Counters are atomics so a
// handler that parallelizes internally can meter without its own lock.
type reqScope struct {
	id string
	tr *tasti.Trace

	labels  atomic.Int64 // successful target-labeler calls
	hits    atomic.Int64 // labels spent on already-annotated records
	records atomic.Int64 // records propagated (queries) or appended (ingest)
	shards  atomic.Int64 // shards touched by the scatter
}

type scopeKeyType struct{}

var scopeKey scopeKeyType

func withScope(ctx context.Context, sc *reqScope) context.Context {
	return context.WithValue(ctx, scopeKey, sc)
}

// scopeFrom returns the request's scope, or nil when the handler runs
// outside the instrument middleware (direct handler tests). Every method
// below is nil-receiver-safe, so handlers never branch on it.
func scopeFrom(ctx context.Context) *reqScope {
	sc, _ := ctx.Value(scopeKey).(*reqScope)
	return sc
}

// rootSpan returns the request's root span, nil when untraced. Span methods
// are nil-safe, so callers thread the result without checking.
func (sc *reqScope) rootSpan() *tasti.Span {
	if sc == nil || sc.tr == nil {
		return nil
	}
	return sc.tr.Root()
}

// child opens a span under the request root, nil when untraced.
func (sc *reqScope) child(name string) *tasti.Span {
	if sc == nil || sc.tr == nil {
		return nil
	}
	return sc.tr.Root().Child(name)
}

func (sc *reqScope) traceID() string {
	if sc == nil {
		return ""
	}
	return sc.id
}

// book records what a query read and spent: its propagation footprint, and
// its labels — the hits among them being labels the system had already
// annotated (cracked, or labeled by an earlier query), spend an admission
// controller could avoid, which is what the ledger exists to expose. A
// query's labels are exactly the successful label calls its processor counts
// into tasti_query_label_calls_total, so per-tenant ledger totals reconcile
// with the global counters.
func (sc *reqScope) book(ans tasti.Answer) {
	if sc == nil {
		return
	}
	sc.setCost(int64(ans.Records), int64(ans.Shards))
	sc.labels.Add(ans.Hits + ans.Misses)
	sc.hits.Add(ans.Hits)
}

// setCost records the request's footprint: records propagated (queries) or
// appended (ingest), and the shards touched.
func (sc *reqScope) setCost(records, shards int64) {
	if sc == nil {
		return
	}
	sc.records.Store(records)
	sc.shards.Store(shards)
}

// costKind maps a route to its ledger entry kind; other routes are free and
// get no entry.
func costKind(route string) (string, bool) {
	switch route {
	case "/query/aggregate":
		return "aggregate", true
	case "/query/select":
		return "select", true
	case "/query/limit":
		return "limit", true
	case "/ingest":
		return "ingest", true
	}
	return "", false
}

// labelStoreStatus is the /admin/status "label_store" section: the store's
// residency and dirtiness, the budget caps, and each admitted tenant's spend
// and remaining headroom (remaining omitted when per-tenant caps are off).
func (s *server) labelStoreStatus() map[string]interface{} {
	body := map[string]interface{}{
		"entries":       s.labels.Len(),
		"dirty":         s.labels.Dirty(),
		"global_budget": s.budget.GlobalCap(),
		"tenant_budget": s.budget.PerTenantCap(),
	}
	if s.budget.GlobalCap() > 0 {
		_, globalLeft := s.budget.Remaining("")
		body["global_remaining"] = globalLeft
	}
	spent := s.budget.Spent()
	if len(spent) > 0 {
		tenants := make(map[string]interface{}, len(spent))
		for tenant, used := range spent {
			t := map[string]interface{}{"spent": used}
			if s.budget.PerTenantCap() > 0 {
				left, _ := s.budget.Remaining(tenant)
				t["remaining"] = left
			}
			tenants[tenant] = t
		}
		body["tenants"] = tenants
	}
	return body
}

// proxyColumnStatus is the /admin/status "proxy_columns" section: what the
// serving index's column store retains and its generation, beside the
// process-wide hit and miss counts (which, unlike the store, survive index
// swaps).
func (s *server) proxyColumnStatus() map[string]interface{} {
	cs := s.index.ColumnStats()
	return map[string]interface{}{
		"entries":    cs.Entries,
		"bytes":      cs.Bytes,
		"generation": cs.Generation,
		"hits":       s.reg.Counter(`tasti_proxy_column_requests_total{result="hit"}`).Value(),
		"misses":     s.reg.Counter(`tasti_proxy_column_requests_total{result="miss"}`).Value(),
	}
}

// handleTraces is GET /admin/traces: the retained sampled traces, oldest
// first, filterable by ?route=/query/aggregate and ?min_ms=50. Span trees
// are rendered at read time, so an ingest trace shows its apply span once
// the batch has been applied even though the ack (and the trace's push into
// the ring) happened first.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var minDur time.Duration
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			httpError(w, http.StatusBadRequest, "bad min_ms: "+v)
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	routeFilter := r.URL.Query().Get("route")
	all := s.traces.Snapshot()
	out := make([]tasti.TraceEntry, 0, len(all))
	for _, e := range all {
		if routeFilter != "" && e.Route != routeFilter {
			continue
		}
		if e.DurationNS < int64(minDur) {
			continue
		}
		out = append(out, e)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"sample_rate": s.sampler.Rate(),
		"capacity":    s.traces.Capacity(),
		"retained":    s.traces.Len(),
		"count":       len(out),
		"traces":      out,
	})
}

// handleLedger is GET /admin/ledger: global totals, per-tenant rollups
// (largest label spend first), the recent-request ring, and the
// conservation verdict — per-tenant sums must equal the global totals.
func (s *server) handleLedger(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.ledger.Snapshot())
}

// healthSnapshot is one index-health collection: index shape, proxy-score
// radius quantiles, drift, and WAL replay debt. Published as gauges by the
// collector loop and inlined into /admin/status and /readyz.
type healthSnapshot struct {
	At        time.Time    `json:"collected_at"`
	Records   int          `json:"records"`
	Reps      int          `json:"representatives"`
	Shards    int          `json:"shards"`
	RadiusP50 float64      `json:"radius_p50"`
	RadiusP90 float64      `json:"radius_p90"`
	RadiusP99 float64      `json:"radius_p99"`
	Memory    memoryHealth `json:"memory"`
	Drift     *driftHealth `json:"drift,omitempty"`
	WAL       *walHealth   `json:"wal,omitempty"`
}

// memoryHealth reports the resident scan-plane memory: the float64 embedding
// matrix, the uint8 quantized code plane (an eighth of it), and the live
// rerank rate — the fraction of code-plane candidates whose pruning bound
// could not exclude them, so they were recomputed exactly against the float
// rows.
type memoryHealth struct {
	FloatBytes int64   `json:"embedding_float_bytes"`
	QuantBytes int64   `json:"embedding_quant_bytes"`
	RerankRate float64 `json:"quant_rerank_rate,omitempty"`
}

type driftHealth struct {
	Ratio     float64 `json:"ratio"`
	Baseline  float64 `json:"baseline"`
	Triggered bool    `json:"triggered"`
}

// walHealth is the WAL's replay debt: what a crash right now would cost the
// next boot. LagRecords counts records retained in live segments
// (NextRecord - FirstRecord); a refresh persists the snapshot and truncates
// covered segments, driving all three toward zero.
type walHealth struct {
	Segments    int   `json:"segments"`
	Bytes       int64 `json:"bytes"`
	FirstRecord int   `json:"first_record"`
	NextRecord  int   `json:"next_record"`
	LagRecords  int   `json:"lag_records"`
	QueueDepth  int   `json:"queue_depth"`
}

// collectHealth takes one health snapshot: index shape from the published
// version (the radius walks its neighbor table, which no writer touches),
// drift and WAL from their own synchronized state. The snapshot is stored for
// /readyz and its numbers published as gauges.
func (s *server) collectHealth() *healthSnapshot {
	ix := s.index.Pin()
	qs := ix.RadiusQuantiles([]float64{0.5, 0.9, 0.99})
	h := &healthSnapshot{
		At:        time.Now(),
		Records:   ix.NumRecords(),
		Reps:      ix.RepCount(),
		Shards:    ix.NumShards(),
		RadiusP50: qs[0],
		RadiusP90: qs[1],
		RadiusP99: qs[2],
	}
	mem := ix.MemoryStats()
	h.Memory = memoryHealth{FloatBytes: mem.FloatBytes, QuantBytes: mem.QuantBytes}
	if cands := s.reg.Counter("tasti_quant_candidates_total").Value(); cands > 0 {
		h.Memory.RerankRate = float64(s.reg.Counter("tasti_quant_rerank_total").Value()) / float64(cands)
	}

	if s.drift != nil {
		h.Drift = &driftHealth{
			Ratio:     s.drift.Ratio(),
			Baseline:  s.drift.Baseline(),
			Triggered: s.drift.Triggered(),
		}
	}
	if s.wal != nil {
		st, err := s.wal.Stat()
		if err != nil {
			s.log.Warn("WAL stat failed during health collection", "err", err.Error())
		} else {
			h.WAL = &walHealth{
				Segments:    st.Segments,
				Bytes:       st.Bytes,
				FirstRecord: st.FirstRecord,
				NextRecord:  st.NextID,
				LagRecords:  st.NextID - st.FirstRecord,
				QueueDepth:  s.ingester.Pending(),
			}
		}
	}

	s.reg.Gauge(`tasti_scan_plane_bytes{plane="float"}`).Set(float64(h.Memory.FloatBytes))
	s.reg.Gauge(`tasti_scan_plane_bytes{plane="quant"}`).Set(float64(h.Memory.QuantBytes))
	s.reg.Gauge(`tasti_index_radius{quantile="p50"}`).Set(h.RadiusP50)
	s.reg.Gauge(`tasti_index_radius{quantile="p90"}`).Set(h.RadiusP90)
	s.reg.Gauge(`tasti_index_radius{quantile="p99"}`).Set(h.RadiusP99)
	if h.WAL != nil {
		s.reg.Gauge("tasti_wal_lag_records").Set(float64(h.WAL.LagRecords))
		s.reg.Gauge("tasti_wal_lag_segments").Set(float64(h.WAL.Segments))
		s.reg.Gauge("tasti_wal_lag_bytes").Set(float64(h.WAL.Bytes))
	}
	s.health.Store(h)
	return h
}

// healthLoop runs the collector every opts.healthInterval, skipping while
// the index is still building. Runs for the process lifetime.
func (s *server) healthLoop() {
	t := time.NewTicker(s.opts.healthInterval)
	defer t.Stop()
	for range t.C {
		if s.ready.Load() {
			s.collectHealth()
		}
	}
}

// startHealthLoop launches the collector when -health-interval is positive.
// GET /admin/status collects on demand either way.
func (s *server) startHealthLoop() {
	if s.opts.healthInterval > 0 {
		go s.healthLoop()
	}
}

// handleStatus is GET /admin/status: one JSON snapshot of the server's
// identity, tracing/ledger state, and index health — collected fresh, so an
// operator gets current numbers even with the background loop disabled.
// Always 200: while the index builds it reports status "building" (or
// "build failed" with the error) so the endpoint is usable before /readyz.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	body := map[string]interface{}{
		"status":            "ready",
		"dataset":           s.name,
		"version":           tasti.Version,
		"go":                runtime.Version(),
		"kernel":            tasti.KernelName(),
		"uptime_seconds":    time.Since(s.started).Seconds(),
		"trace_sample_rate": s.sampler.Rate(),
		"traces_retained":   s.traces.Len(),
		"trace_ring_cap":    s.traces.Capacity(),
		"ledger":            s.ledger.Global(),
		"label_store":       s.labelStoreStatus(),
	}
	if !s.ready.Load() {
		body["status"] = "building"
		if err, ok := s.buildErr.Load().(string); ok {
			body["status"] = "build failed"
			body["error"] = err
		}
		writeJSON(w, http.StatusOK, body)
		return
	}
	body["breaker_state"] = s.breaker.State().String()
	body["proxy_columns"] = s.proxyColumnStatus()
	body["health"] = s.collectHealth()
	writeJSON(w, http.StatusOK, body)
}
