package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/tasti"
)

// serverOptions configures a query server. The zero value of every
// reliability knob disables it, reproducing the pre-hardening behavior.
type serverOptions struct {
	dataset     string
	size        int
	train       int
	reps        int
	seed        int64
	parallelism int
	// shards is the view count (< 1 means 1) that /index and /admin/status
	// report and the snapshot records; no query reads it.
	shards int

	// queryTimeout bounds each /query/ request end to end (0 = unbounded).
	queryTimeout time.Duration
	// labelTimeout bounds each target-labeler invocation, during both index
	// construction and query sampling (0 = unbounded).
	labelTimeout time.Duration
	// retry retries transient labeler faults during construction and
	// queries; the zero value disables retrying.
	retry tasti.RetryPolicy
	// allowDegraded lets index construction complete around permanently
	// unlabelable records instead of failing.
	allowDegraded bool
	// faultRate injects seeded transient labeler faults at this per-attempt
	// probability — the chaos-serving knob (0 = healthy labeler).
	faultRate float64
	// breaker parameterizes the circuit breaker guarding the serve-path
	// labeler; the zero value uses the defaults.
	breaker tasti.BreakerPolicy
	// logger receives the server's structured logs; nil selects a text
	// handler on stderr (main wires -log-format=json here).
	logger *slog.Logger
	// snapshotPath is the durable home of the index: loaded at startup when
	// the file exists (skipping the build), written after a fresh build, and
	// re-read by POST /admin/reload and SIGHUP. Empty disables persistence.
	snapshotPath string

	// walDir enables streaming ingest: appended records are fsynced into a
	// write-ahead log here before they are acked, replayed into the index at
	// boot, and folded into the snapshot by POST /admin/refresh. Empty
	// disables POST /ingest (it answers 501). See docs/RELIABILITY.md.
	walDir string
	// ingestBatch bounds how many records one WAL frame (and fsync)
	// coalesces (<= 0 uses the library default).
	ingestBatch int
	// ingestMaxBody caps a POST /ingest body in bytes; larger bodies answer
	// 413 (<= 0: 8 MiB).
	ingestMaxBody int64
	// ingestTenantPending caps records a single tenant (X-Tasti-Tenant) may
	// have in flight through the ingest pipeline; beyond it the tenant gets
	// 429 while others keep writing, and a batch larger than the cap alone
	// gets 413 (<= 0: 4096).
	ingestTenantPending int
	// refreshBudget bounds representatives added per refresh (<= 0 uses the
	// library default).
	refreshBudget int
	// refreshAuto lets drift trigger background refreshes; POST
	// /admin/refresh works either way.
	refreshAuto bool

	// labelStorePath is the durable home of the label store: loaded before
	// the build when the file exists, flushed on the labelFlush ticker and
	// at drain. Empty keeps the store in memory only.
	labelStorePath string
	// labelBudget caps total serve-path oracle calls across all tenants
	// (<= 0 = unlimited). Exhaustion degrades queries instead of failing
	// them; requests that cannot even start answer 429.
	labelBudget int64
	// tenantBudget caps serve-path oracle calls per tenant, keyed by
	// X-Tasti-Tenant (<= 0 = unlimited).
	tenantBudget int64
	// labelFlush is the background store-flush period (0 disables the loop;
	// the drain path still flushes).
	labelFlush time.Duration
	// labelInflight bounds concurrent distinct-record oracle calls through
	// the store before it answers saturation (<= 0 uses the store default).
	labelInflight int

	// traceSample is the fraction of /query/* and /ingest requests whose
	// full span tree is retained for GET /admin/traces (0 disables, >= 1
	// traces every request). Sampling is deterministic — every 1/rate-th
	// request — and tracing is record-only: results are bitwise identical
	// at every rate.
	traceSample float64
	// traceRing bounds retained traces; the oldest is overwritten
	// (<= 0: 256).
	traceRing int
	// healthInterval is the index-health collector period feeding the
	// radius/WAL-lag gauges (0 disables the background loop;
	// GET /admin/status still collects on demand).
	healthInterval time.Duration
}

// traceRingCap resolves the trace-ring default.
func (o serverOptions) traceRingCap() int {
	if o.traceRing <= 0 {
		return 256
	}
	return o.traceRing
}

// ingestMaxBodyBytes resolves the body cap default.
func (o serverOptions) ingestMaxBodyBytes() int64 {
	if o.ingestMaxBody <= 0 {
		return 8 << 20
	}
	return o.ingestMaxBody
}

// tenantPendingCap resolves the per-tenant pending-records default.
func (o serverOptions) tenantPendingCap() int {
	if o.ingestTenantPending <= 0 {
		return 4096
	}
	return o.ingestTenantPending
}

// The drift detector averages the last driftWindow appends' nearest-
// representative distances and flags drift once that mean exceeds
// driftThreshold x the baseline captured at build or refresh.
const (
	driftWindow    = 256
	driftThreshold = 1.5
)

// shardCount normalizes the shard knob: anything below 1 serves one shard.
func (o serverOptions) shardCount() int {
	if o.shards < 1 {
		return 1
	}
	return o.shards
}

// server owns an index over one corpus and answers queries over HTTP. No
// request takes a lock another request or a writer can hold for its length:
// a handler pins the index's published version (tasti.IndexVersion, one
// atomic load) and reads only it — proxy columns, annotations, record and
// representative counts — so its answer is the serial answer for that
// version whatever is published meanwhile, and a label the system already
// owns comes back through one lock-free read of the label store. Writers —
// cracking limits, the ingest apply loop, refreshes, reloads — go through the
// index's one write path, serialized among themselves only
// (tasti_index_writer_wait_seconds is all the waiting there is); each
// publishes the next version copy-on-write, never touching what a pinned
// request reads. TestServeQueriesConcurrentWithCracking holds this contract
// under the race detector.
type server struct {
	opts serverOptions
	name string
	seed int64

	// log is the structured logger; reg owns every metric the server emits
	// and renders them at GET /metrics. inFlight tracks requests currently
	// being served, across all routes.
	log      *slog.Logger
	reg      *tasti.MetricsRegistry
	inFlight *tasti.MetricGauge

	// ready flips to true once build() has published corpus/target/breaker/
	// index below; handlers must observe ready before touching them.
	ready    atomic.Bool
	buildErr atomic.Value // string
	started  time.Time

	target  tasti.Labeler // serve-path labeler: retry(breaker(deadline(base)))
	breaker *tasti.Breaker

	// corpus is the view of the corpus the oracle labels from and the
	// persist path saves. With streaming ingest on it grows: the apply loop —
	// its only writer once serving — publishes each extended view as a new
	// Dataset value BEFORE the index version that makes the records
	// queryable, so whoever pinned a version finds every record of it here.
	// dim never changes after build, so the ready flag alone orders it.
	corpus atomic.Pointer[tasti.Dataset]
	dim    int

	// index is the sharded serving index, set once by the build. Every state
	// change — crack, append, one-shard or whole-index reload, refresh —
	// goes through its write path and lands as a new published version;
	// handlers Pin once per request, so a request sees one consistent index
	// end to end and no swap ever lands under it.
	index *tasti.ShardedIndex
	// reloading serializes reloads: a second reload arriving while one is
	// loading and validating is rejected, not queued.
	reloading atomic.Bool

	// Streaming ingest state, populated by initIngest when -wal-dir is set
	// (nil otherwise). persisting keeps one persistIngestState's dataset and
	// index files a pair.
	wal        *tasti.WAL
	ingester   *tasti.Ingester
	drift      *tasti.DriftDetector
	refresher  *tasti.Refresher
	tenants    tenantLimiter
	persisting sync.Mutex

	// Observability plane (see cmd/tastiserve/admin.go): sampler decides
	// which requests retain a span tree in traces; ledger attributes every
	// query's and ingest's cost per tenant; health is the latest
	// index-health collection. All record-only — none of it feeds back
	// into query execution.
	sampler *tasti.TraceSampler
	traces  *tasti.TraceRing
	ledger  *tasti.CostLedger
	health  atomic.Pointer[healthSnapshot]

	// Cost control: labels is the one record→annotation store the build
	// labels through and every query handler binds its sampling labeler to
	// (hits and coalesced calls spend nothing); budget admits each real
	// oracle call against the global and per-tenant caps. Unlike the index,
	// both are internally synchronized and outlive index swaps; a label the
	// store already holds is read without any lock (labelHits counts those).
	labels    *tasti.LabelStore
	budget    *tasti.BudgetManager
	labelHits *tasti.MetricCounter // tasti_labelstore_hits_total

	// routes holds each route's HTTP metric handles, resolved on first use.
	routes map[string]*routeMetrics
}

// newServerShell returns a server that is alive (serves /healthz and
// /readyz) but not ready: call build, or buildAsync, to construct the index.
func newServerShell(opts serverOptions) *server {
	lg := opts.logger
	if lg == nil {
		lg = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	reg := tasti.NewMetricsRegistry()
	reg.Help("tasti_http_in_flight", "Requests currently being served, across all routes.")
	reg.Help("tasti_http_requests_total", "HTTP requests served, by route and status code.")
	reg.Help("tasti_http_request_seconds", "End-to-end request latency in seconds, by route.")
	reg.Help("tasti_snapshot_reload_total", "Index hot-reload attempts, by outcome.")
	reg.Help("tasti_snapshot_reload_seconds", "Hot-reload latency in seconds: snapshot load, validation, and swap.")
	reg.Help("tasti_index_reps", "Cluster representatives of the index.")
	reg.Help("tasti_wal_frames_total", "WAL frames appended and fsynced.")
	reg.Help("tasti_wal_bytes_total", "Bytes appended to WAL segments.")
	reg.Help("tasti_wal_segments_total", "WAL segments created, including rotations.")
	reg.Help("tasti_wal_fsync_errors_total", "WAL frame fsyncs that failed; the affected batch was not acked.")
	reg.Help("tasti_wal_replay_records", "Records recovered from the WAL at the last boot.")
	reg.Help("tasti_wal_replay_skipped", "WAL records below the snapshot floor at the last boot.")
	reg.Help("tasti_wal_replay_segments", "WAL segments walked by the last boot's replay.")
	reg.Help("tasti_wal_replay_truncations_total", "Boot replays that dropped a torn or corrupt WAL tail.")
	reg.Help("tasti_ingest_acked_total", "Records acknowledged to submitters after their WAL fsync.")
	reg.Help("tasti_ingest_rejected_total", "Records rejected by ingest queue saturation.")
	reg.Help("tasti_ingest_queue_depth", "Requests waiting for the ingest writer loop.")
	reg.Help("tasti_ingest_ack_seconds", "Submit-to-ack latency in seconds, including the WAL fsync.")
	reg.Help("tasti_ingest_batch_records", "Records per coalesced WAL frame.")
	reg.Help("tasti_ingest_tenant_rejections_total", "Ingest requests rejected by the per-tenant pending-records cap.")
	reg.Help("tasti_drift_ratio", "Mean nearest-representative distance of recent appends over the baseline.")
	reg.Help("tasti_drift_baseline_distance", "Baseline mean nearest-representative distance, reset at build, replay, and refresh.")
	reg.Help("tasti_refresh_total", "Background index refresh attempts.")
	reg.Help("tasti_refresh_failed_total", "Background index refreshes that failed; the previous index keeps serving.")
	reg.Help("tasti_refresh_cracked_total", "Appended records cracked into representatives by refreshes.")
	reg.Help("tasti_refresh_running", "1 while a background refresh is running.")
	reg.Help("tasti_refresh_seconds", "Refresh latency in seconds: rank candidates, label, crack batch, requantize.")
	reg.Help("tasti_build_info", "Build identity (value is always 1; labels carry the version, Go runtime, vecmath kernel, view count, and snapshot format version).")
	reg.Gauge(fmt.Sprintf(`tasti_build_info{version=%q,go=%q,kernel=%q,shards="%d",snapshot="v%d"}`,
		tasti.Version, runtime.Version(), tasti.KernelName(), opts.shardCount(), tasti.SnapshotFormatVersion)).Set(1)
	reg.Help("tasti_traces_retained_total", "Sampled request traces pushed into the /admin/traces ring.")
	reg.Help("tasti_wal_lag_records", "Records retained in live WAL segments — the next boot's replay debt; refreshes truncate it.")
	reg.Help("tasti_wal_lag_segments", "Live WAL segments on disk.")
	reg.Help("tasti_wal_lag_bytes", "Bytes across live WAL segments on disk.")
	reg.Help("tasti_index_radius", "Nearest-representative distance quantiles across all records, by quantile; rising radii mean propagated scores extrapolate further.")
	reg.Help("tasti_labelstore_hits_total", "Label requests answered from the cross-query store or the index — zero oracle spend.")
	reg.Help("tasti_labelstore_misses_total", "Label requests that led an oracle call (singleflight leaders).")
	reg.Help("tasti_labelstore_coalesced_total", "Label requests that joined an in-flight oracle call for the same record instead of issuing their own.")
	reg.Help("tasti_labelstore_saturated_total", "Label requests rejected because the store's in-flight table was full (HTTP 429).")
	reg.Help("tasti_labelstore_entries", "Annotations held by the label store, the index build's included.")
	reg.Help("tasti_labelstore_flush_total", "Label-store snapshot flushes, by outcome.")
	reg.Help("tasti_budget_reservations_total", "Oracle-call reservations admitted by the budget manager.")
	reg.Help("tasti_budget_refunds_total", "Reservations refunded because the admitted oracle call failed.")
	reg.Help("tasti_budget_exhausted_total", "Label admissions rejected by an exhausted budget, by scope (global or tenant).")
	reg.Help("tasti_budget_remaining", "Oracle calls still admissible, by scope; absent when that scope is unlimited.")
	reg.Help("tasti_query_degraded_total", "Queries that returned a partial (Degraded) answer after mid-query budget exhaustion, by type.")
	reg.Help("tasti_proxy_column_requests_total", "Proxy-column fetches by the query handlers, by result and propagation kind: a hit propagated nothing, a miss ran one propagation.")
	reg.Help("tasti_proxy_column_invalidations_total", "Times a crack or append left the retained proxy columns in its predecessor's store, for the next request per scoring function to derive its column from.")
	reg.Help("tasti_proxy_column_evictions_total", "Proxy columns evicted least-recently-used-first to stay inside the 64 MiB budget.")
	reg.Help("tasti_proxy_column_bytes", "Payload charged to the retained proxy columns, in bytes.")
	reg.Help("tasti_index_generation", "State-changing mutations (representatives added, appends) applied to the serving index object; restarts from 0 when a reload swaps the index.")
	reg.Help("tasti_index_writer_wait_seconds", "Time an index write (crack, append, refresh or reload) waited for the write ahead of it; reads never wait.")
	labels := tasti.NewLabelStore(tasti.LabelStoreOptions{
		MaxInflight: opts.labelInflight,
		Telemetry:   reg,
		Corpus:      tasti.Corpus{Dataset: opts.dataset, Size: opts.size, Seed: opts.seed},
	})
	budget := tasti.NewBudgetManager(tasti.BudgetConfig{
		Global:    opts.labelBudget,
		PerTenant: opts.tenantBudget,
		Telemetry: reg,
	})
	routes := make(map[string]*routeMetrics, len(routeLabels)+1)
	for _, route := range append([]string{"other"}, routeLabels...) {
		routes[route] = &routeMetrics{route: route}
	}
	return &server{
		opts:     opts,
		name:     opts.dataset,
		seed:     opts.seed,
		started:  time.Now(),
		log:      lg,
		reg:      reg,
		inFlight: reg.Gauge("tasti_http_in_flight"),
		sampler:  tasti.NewTraceSampler(opts.traceSample),
		traces:   tasti.NewTraceRing(opts.traceRingCap()),
		ledger:   tasti.NewCostLedger(0),
		labels:   labels,
		budget:   budget,

		labelHits: reg.Counter("tasti_labelstore_hits_total"),
		routes:    routes,
	}
}

// newServer generates the corpus and builds the index synchronously.
func newServer(opts serverOptions) (*server, error) {
	s := newServerShell(opts)
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// build constructs the corpus, labeler chain, and index, then marks the
// server ready. On failure the error is also published to /readyz.
func (s *server) build() error {
	err := s.buildIndex()
	if err != nil {
		s.buildErr.Store(err.Error())
	}
	return err
}

// buildAsync runs build in the background so the HTTP listener can come up
// — and report liveness and build progress — while the index constructs.
func (s *server) buildAsync() {
	go func() {
		if err := s.build(); err != nil {
			s.log.Error("index build failed", "dataset", s.name, "err", err.Error())
		}
	}()
}

func (s *server) buildIndex() error {
	opts := s.opts
	ds, err := tasti.GenerateDataset(opts.dataset, opts.size, opts.seed)
	if err != nil {
		return err
	}
	corpus := ds.Corpus
	// With ingest enabled, the corpus may have grown past the generated base:
	// the refresh path saves the extended dataset next to the WAL, and it is
	// the ground truth for every appended record. Restore it before snapshot
	// validation so an extended index snapshot is accepted.
	if opts.walDir != "" {
		ds = s.restoreIngestDataset(ds)
	}
	s.corpus.Store(ds)
	// Restore the label store before anything labels: a rebuild pays nothing
	// for a label on disk, and no flush writes fewer labels than the file
	// held. A damaged file, or another corpus's, changes nothing.
	if opts.labelStorePath != "" {
		if _, err := os.Stat(opts.labelStorePath); err == nil {
			if lerr := tasti.ReadSnapshotFile(opts.labelStorePath, s.labels.Restore); lerr != nil {
				s.log.Warn("label store unusable; starting empty",
					"path", opts.labelStorePath, "err", lerr.Error())
			} else {
				s.log.Info("label store loaded",
					"path", opts.labelStorePath, "labels", s.labels.Len())
			}
		}
	}
	cost := tasti.MaskRCNNCost
	if opts.dataset == "wikisql" || opts.dataset == "common-voice" {
		cost = tasti.HumanCost
	}
	// base is the (possibly chaos-injected) target labeler tier shared by
	// construction and serving. It labels from the published corpus view, so
	// records ingest appends later are covered without the oracle ever
	// reading a corpus that is being appended to.
	base := tasti.NewLiveOracle(s.corpus.Load, "target", cost)
	if opts.faultRate > 0 {
		base = tasti.NewFlakyLabeler(base, tasti.FlakyConfig{
			Seed:           opts.seed,
			TransientRate:  opts.faultRate,
			MaxConsecutive: 3,
		})
	}

	var key tasti.BucketKey
	switch opts.dataset {
	case "wikisql":
		key = tasti.TextBucketKey()
	case "common-voice":
		key = tasti.SpeechBucketKey()
	default:
		key = tasti.VideoBucketKey(0.5)
	}
	// Prefer a durable snapshot over re-spending the whole labeling budget:
	// when -snapshot names an existing file, load and validate it; any
	// corruption — or a snapshot from before the v7 layout — is
	// contained by the typed snapshot errors and the server falls back to
	// building fresh. A fresh build is saved back to the same path
	// (atomically), so the next start — and every hot reload — has it: the
	// one index container (manifest + one frame per array) at every shard
	// count, the one the refresh path writes too.
	// With ingest enabled a snapshot may cover any prefix from the base
	// corpus through the full extended dataset — WAL replay fills the rest.
	minRecords := ds.Len()
	if opts.walDir != "" {
		minRecords = opts.size
	}
	var index *tasti.ShardedIndex
	if opts.snapshotPath != "" {
		if _, err := os.Stat(opts.snapshotPath); err == nil {
			index, err = loadServingSnapshot(opts.snapshotPath, ds, corpus, opts.parallelism, minRecords)
			if err != nil {
				s.log.Warn("snapshot unusable; building fresh",
					"path", opts.snapshotPath, "err", err.Error())
				index = nil
			} else {
				s.log.Info("index loaded from snapshot",
					"path", opts.snapshotPath, "records", index.NumRecords(),
					"shards", index.NumShards())
			}
		}
	}
	if index == nil {
		cfg := tasti.DefaultConfig(opts.train, opts.reps, key, opts.seed)
		cfg.Parallelism = opts.parallelism
		cfg.Retry = opts.retry
		cfg.LabelTimeout = opts.labelTimeout
		cfg.AllowDegraded = opts.allowDegraded
		cfg.Telemetry = s.reg
		cfg.Labels = s.labels
		built, err := tasti.Build(cfg, ds, base)
		if err != nil {
			return err
		}
		index, err = tasti.SplitIndex(built, opts.shardCount())
		if err != nil {
			return err
		}
		if opts.snapshotPath != "" {
			if err := tasti.WriteFileAtomic(opts.snapshotPath, index.Save); err != nil {
				return fmt.Errorf("saving index snapshot: %w", err)
			}
			s.log.Info("index snapshot saved",
				"path", opts.snapshotPath, "shards", index.NumShards())
		}
	}
	index.SetTelemetry(s.reg)
	// Replay the WAL into the index and start the ingest pipeline before the
	// server flips ready: POST /ingest answers 503 for the whole replay.
	if opts.walDir != "" {
		if err := s.initIngest(index, ds); err != nil {
			return err
		}
	}

	// Serve-path chain, outermost first: retries recover transient faults,
	// the breaker fails fast while the tier is unhealthy (and feeds
	// /readyz), the deadline bounds each call's latency. Each layer reports
	// its outcomes into the server's registry.
	var serveLab tasti.Labeler = base
	if opts.labelTimeout > 0 {
		dl := tasti.NewDeadlineLabeler(serveLab, opts.labelTimeout)
		dl.SetTelemetry(s.reg)
		serveLab = dl
	}
	breaker := tasti.NewBreakerLabeler(serveLab, opts.breaker)
	breaker.SetTelemetry(s.reg)
	serveLab = breaker
	if opts.retry.Enabled() {
		rt := tasti.NewRetryLabeler(serveLab, opts.retry)
		rt.SetTelemetry(s.reg)
		serveLab = rt
	}

	s.dim = ds.FeatureDim()
	s.target = serveLab
	s.breaker = breaker
	s.index = index
	s.ready.Store(true)
	s.log.Info("index built",
		"dataset", s.name,
		"records", ds.Len(),
		"shards", index.NumShards(),
		"representatives", index.RepCount(),
		"label_calls", index.Pin().Stats.TotalLabelCalls(),
		"stats", index.Pin().Stats.String())
	return nil
}

// loadServingSnapshot reads, checksum-verifies, and validates an index
// snapshot at the shard layout it was saved at (the file's layout wins over
// the -shards flag), and
// checks it actually describes the server's corpus — a snapshot of another
// dataset, size or seed serves its own representatives' annotations as
// labels of other records, so it is rejected like any other corruption, as
// is one that names no corpus. Without ingest, minRecords equals the corpus
// size and the count check is exact; with ingest, a snapshot may cover any
// prefix from the base corpus (minRecords) through the full extended dataset,
// and WAL replay supplies the remainder.
func loadServingSnapshot(path string, ds *tasti.Dataset, corpus tasti.Corpus, parallelism, minRecords int) (*tasti.ShardedIndex, error) {
	var sx *tasti.ShardedIndex
	err := tasti.ReadSnapshotFile(path, func(r io.Reader) error {
		var lerr error
		sx, lerr = tasti.LoadShardedIndex(r)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	if err := sx.Pin().CheckCorpus(corpus); err != nil {
		return nil, err
	}
	if sx.NumRecords() < minRecords || sx.NumRecords() > ds.Len() {
		return nil, fmt.Errorf("snapshot indexes %d records, the serving corpus covers [%d,%d]",
			sx.NumRecords(), minRecords, ds.Len())
	}
	sx.SetParallelism(parallelism)
	return sx, nil
}

// errReloadInProgress rejects a reload that arrives while another is still
// loading and validating.
var errReloadInProgress = errors.New("reload already in progress")

// reload replaces the serving index's state with a freshly loaded copy of
// the snapshot file, with zero downtime: the new index is read and validated
// entirely off the request path and published as one index write. Requests
// that pinned the previous version finish on it. Validation failure is
// contained — the previous index keeps serving, the failure is counted and
// logged.
func (s *server) reload() error {
	if s.opts.snapshotPath == "" {
		return errors.New("no -snapshot path configured")
	}
	if s.opts.walDir != "" {
		// With streaming ingest, the snapshot on disk may lag the live index
		// by acked appends; swapping it in would fork record IDs from the
		// WAL. The refresh path owns snapshotting instead.
		return errors.New("hot reload is disabled while streaming ingest is on; POST /admin/refresh re-cracks and snapshots instead")
	}
	if !s.ready.Load() {
		return errors.New("index not ready")
	}
	if !s.reloading.CompareAndSwap(false, true) {
		return errReloadInProgress
	}
	defer s.reloading.Store(false)

	start := time.Now()
	ds := s.corpus.Load()
	next, err := loadServingSnapshot(s.opts.snapshotPath, ds, ds.Corpus, s.opts.parallelism, ds.Len())
	if err != nil {
		s.reg.Counter(`tasti_snapshot_reload_total{outcome="error"}`).Inc()
		s.log.Error("index reload failed; previous index keeps serving",
			"path", s.opts.snapshotPath, "err", err.Error())
		return err
	}
	prevReps := s.index.RepCount()
	s.index.Replace(next)
	elapsed := time.Since(start)
	s.reg.Counter(`tasti_snapshot_reload_total{outcome="ok"}`).Inc()
	s.reg.Histogram("tasti_snapshot_reload_seconds", tasti.DefLatencyBuckets).Observe(elapsed.Seconds())
	s.log.Info("index reloaded",
		"path", s.opts.snapshotPath,
		"records", next.NumRecords(),
		"shards", next.NumShards(),
		"representatives", next.RepCount(),
		"previous_representatives", prevReps,
		"elapsed_ms", float64(elapsed.Microseconds())/1000)
	return nil
}

// handleReload is POST /admin/reload: re-read the snapshot file and swap in
// the whole index, as SIGHUP does. Query parameters are ignored, so a
// ?shard=i request reloads the whole index too. 409 marks a reload already
// running, 502 a snapshot that failed to load or validate (the old index
// keeps serving).
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.notReady(w) {
		return
	}
	if err := s.reload(); err != nil {
		switch {
		case errors.Is(err, errReloadInProgress):
			httpError(w, http.StatusConflict, err.Error())
		default:
			httpError(w, http.StatusBadGateway, "reload failed, previous index still serving: "+err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"status": "reloaded", "records": s.index.NumRecords()})
}

// handler wires the routes behind the hardening middleware: panic recovery
// outermost, then the per-request query timeout.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/index", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/query/aggregate", s.handleAggregate)
	mux.HandleFunc("/query/select", s.handleSelect)
	mux.HandleFunc("/query/limit", s.handleLimit)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.HandleFunc("/admin/refresh", s.handleRefresh)
	mux.HandleFunc("/admin/traces", s.handleTraces)
	mux.HandleFunc("/admin/ledger", s.handleLedger)
	mux.HandleFunc("/admin/status", s.handleStatus)
	return s.recoverPanics(s.instrument(s.withQueryTimeout(mux)))
}

// handleMetrics renders every registered metric in the Prometheus text
// exposition format. The breaker-state gauge is refreshed at scrape time so
// a tier that went unhealthy between requests still reads correctly.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.ready.Load() {
		s.reg.Gauge("tasti_breaker_state").Set(float64(s.breaker.State()))
		// The representative and column gauges refresh at scrape time, so
		// cracks and reloads between scrapes still read correctly.
		s.index.PublishMetrics()
	}
	s.publishBudgetMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck // best-effort response write
}

// publishBudgetMetrics refreshes the budget-remaining gauges at scrape time:
// the global pool under scope="global", and each tenant that has spent labels
// under scope="tenant". Unlimited scopes publish nothing — absence, not a
// sentinel value. Tenant names come from the budget's own spend books, so the
// series set is bounded by tenants actually admitted, not by attacker-minted
// header values on free routes.
func (s *server) publishBudgetMetrics() {
	if s.budget.GlobalCap() > 0 {
		_, globalLeft := s.budget.Remaining("")
		s.reg.Gauge(`tasti_budget_remaining{scope="global"}`).Set(float64(globalLeft))
	}
	if s.budget.PerTenantCap() > 0 {
		for tenant := range s.budget.Spent() {
			left, _ := s.budget.Remaining(tenant)
			s.reg.Gauge(fmt.Sprintf(`tasti_budget_remaining{scope="tenant",tenant=%q}`, tenant)).Set(float64(left))
		}
	}
}

// startLabelFlushLoop flushes the label store to -label-store every
// -label-flush while it holds labels the file lacks, the build's included,
// and returns the drain path's stop, which flushes once more. Each write is
// atomic, so a kill -9 mid-flush leaves the previous file intact.
func (s *server) startLabelFlushLoop() (stop func()) {
	if s.opts.labelStorePath == "" {
		return func() {}
	}
	return s.labels.FlushEvery(s.opts.labelStorePath, s.opts.labelFlush, func(err error) {
		if err != nil {
			s.log.Warn("label-store flush failed; annotations stay in memory",
				"path", s.opts.labelStorePath, "err", err.Error())
			return
		}
		s.log.Info("label store flushed",
			"path", s.opts.labelStorePath, "labels", s.labels.Len())
	})
}

// statusRecorder captures the response status code for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// routeLabels are the served paths; anything else is metered as "other", so
// an attacker probing random paths cannot mint unbounded series.
var routeLabels = []string{
	"/healthz", "/readyz", "/index", "/metrics",
	"/query/aggregate", "/query/select", "/query/limit",
	"/ingest", "/admin/reload", "/admin/refresh",
	"/admin/traces", "/admin/ledger", "/admin/status",
}

// routeMetrics holds one route's HTTP metric handles. Each is resolved the
// first time the route needs it — a series appears on /metrics when it first
// counts something, exactly as when every request looked it up by formatted
// name — and found by an atomic load or a lock-free map read afterwards.
type routeMetrics struct {
	route   string
	seconds atomic.Pointer[tasti.MetricHistogram] // tasti_http_request_seconds{route}
	byCode  sync.Map                              // status code -> *tasti.MetricCounter, tasti_http_requests_total{route,code}
}

// observe books one finished request.
func (m *routeMetrics) observe(reg *tasti.MetricsRegistry, code int, elapsed time.Duration) {
	c, ok := m.byCode.Load(code)
	if !ok {
		c, _ = m.byCode.LoadOrStore(code, reg.Counter(fmt.Sprintf(`tasti_http_requests_total{route=%q,code="%d"}`, m.route, code)))
	}
	c.(*tasti.MetricCounter).Inc()
	h := m.seconds.Load()
	if h == nil {
		h = reg.Histogram(fmt.Sprintf(`tasti_http_request_seconds{route=%q}`, m.route), tasti.DefLatencyBuckets)
		m.seconds.Store(h)
	}
	h.Observe(elapsed.Seconds())
}

// instrument wraps every request with metrics — request counters by route
// and status code, a latency histogram, the in-flight gauge — and one
// structured log line carrying route, method, status, latency, trace ID, and
// query type.
// Probe routes log at debug so scrapes don't drown the query log. It also
// owns the request's observability scope: every request gets a trace ID,
// sampled query/ingest requests get a span tree retained in the trace ring,
// and costed routes get a ledger entry once the response is written.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rm := s.routes[r.URL.Path]
		if rm == nil {
			rm = s.routes["other"]
		}
		route := rm.route
		kind, costed := costKind(route)
		sc := &reqScope{id: tasti.NewTraceID()}
		if costed && s.sampler.Sample() {
			sc.tr = tasti.NewTrace(route)
			sc.tr.SetID(sc.id)
		}
		r = r.WithContext(withScope(r.Context(), sc))
		s.inFlight.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		s.inFlight.Dec()
		rm.observe(s.reg, rec.code, elapsed)
		if sc.tr != nil {
			sc.tr.Finish()
			s.traces.Push(route, sc.tr)
			s.reg.Counter("tasti_traces_retained_total").Inc()
		}
		if costed {
			s.ledger.Record(tasti.LedgerEntry{
				Tenant:  r.Header.Get("X-Tasti-Tenant"),
				Kind:    kind,
				TraceID: sc.id,
				Labels:  sc.labels.Load(),
				Records: sc.records.Load(),
				Hits:    sc.hits.Load(),
				WallNS:  elapsed.Nanoseconds(),
				Status:  rec.code,
				When:    time.Now(),
			})
		}

		attrs := make([]slog.Attr, 0, 6)
		attrs = append(attrs,
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", rec.code),
			slog.Float64("latency_ms", float64(elapsed.Microseconds())/1000),
			slog.String("trace_id", sc.id),
		)
		if qt, ok := strings.CutPrefix(route, "/query/"); ok {
			attrs = append(attrs, slog.String("query_type", qt))
		}
		level := slog.LevelInfo
		if route == "/healthz" || route == "/readyz" || route == "/metrics" {
			level = slog.LevelDebug
		}
		s.log.LogAttrs(r.Context(), level, "request", attrs...)
	})
}

// recoverPanics turns a panicking handler into a 500 instead of killing the
// connection (and, for handlers run outside http.Server, the process).
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.log.Error("panic serving request",
					"method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(p))
				httpError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withQueryTimeout derives a deadline-bound context for /query/ requests, so
// sampling and labeling stop at the budget.
func (s *server) withQueryTimeout(next http.Handler) http.Handler {
	if s.opts.queryTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/query/") {
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.queryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// handleReady reports whether queries can be served, and the health of the
// labeler tier behind them: 200 once the index is built, 503 while it is
// still building or after the build failed.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		body := map[string]interface{}{"status": "building"}
		if err, ok := s.buildErr.Load().(string); ok {
			body["status"] = "build failed"
			body["error"] = err
		}
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	v := s.index.Pin()
	body := map[string]interface{}{
		"status":           "ready",
		"dataset":          s.name,
		"records":          v.NumRecords(),
		"degraded":         v.Stats.Degraded(),
		"breaker_state":    s.breaker.State().String(),
		"breaker_trips":    s.breaker.Trips(),
		"breaker_rejected": s.breaker.Rejected(),
	}
	// The health collector's last snapshot rides along so a readiness probe
	// (or an operator curling it) sees drift and replay debt without
	// a fresh collection's pass over every record's radius.
	if h := s.health.Load(); h != nil {
		body["health_age_seconds"] = time.Since(h.At).Seconds()
		if h.Drift != nil {
			body["drift_ratio"] = h.Drift.Ratio
		}
		if h.WAL != nil {
			body["wal_lag_records"] = h.WAL.LagRecords
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// notReady rejects a query while the index is still building.
func (s *server) notReady(w http.ResponseWriter) bool {
	if s.ready.Load() {
		return false
	}
	httpError(w, http.StatusServiceUnavailable, "index not ready")
	return true
}

// indexInfo is the /index response.
type indexInfo struct {
	Dataset         string `json:"dataset"`
	Records         int    `json:"records"`
	Shards          int    `json:"shards"`
	Representatives int    `json:"representatives"`
	LabelCalls      int64  `json:"index_label_calls"`
	DegradedReps    int    `json:"degraded_reps"`
	LabelRetries    int64  `json:"build_label_retries"`
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.notReady(w) {
		return
	}
	v := s.index.Pin()
	writeJSON(w, http.StatusOK, indexInfo{
		Dataset:         s.name,
		Records:         v.NumRecords(),
		Shards:          v.NumShards(),
		Representatives: v.RepCount(),
		LabelCalls:      v.Stats.TotalLabelCalls(),
		DegradedReps:    len(v.Stats.DegradedReps),
		LabelRetries:    v.Stats.LabelRetries,
	})
}

// queryRequest is the shared body of the query endpoints. Class/Count
// address video corpora; for text the predicate is "operator == Class"; for
// speech it is "gender == Class".
type queryRequest struct {
	Class  string  `json:"class"`
	Count  int     `json:"count"`
	Err    float64 `json:"err"`
	Budget int     `json:"budget"`
	Recall float64 `json:"recall"`
	K      int     `json:"k"`
	Crack  bool    `json:"crack"`
}

// maxQueryBody caps a /query/* body. A request is a handful of scalars and a
// class name; the class names a retained proxy column, so an unbounded one
// would be an unbounded key.
const maxQueryBody = 64 << 10

// decode parses a query body into req and fills the defaults. On failure it
// has written the response — 405 for a method other than POST, 413 for a body
// over maxQueryBody, 400 for anything else — and returns false.
func (s *server) decode(w http.ResponseWriter, r *http.Request, req *queryRequest) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	// Defaults.
	if req.Class == "" {
		req.Class = "car"
	}
	if req.Count <= 0 {
		req.Count = 1
	}
	if req.Err <= 0 {
		req.Err = 0.05
	}
	if req.Budget <= 0 {
		req.Budget = max(100, s.corpus.Load().Len()/40)
	}
	if req.Recall <= 0 || req.Recall >= 1 {
		req.Recall = 0.9
	}
	if req.K <= 0 {
		req.K = 10
	}
	return true
}

// querySpec is a request translated for the server's corpus. Each scorer
// carries the name that keys its proxy column, built from exactly the
// request fields its closure reads (after normalisation), so two requests
// share a column if and only if they score every annotation alike.
type querySpec struct {
	// score is the statistic aggregates estimate and limits rank by.
	score tasti.Scorer
	// match is pred as a 0/1 score: the proxy selects sample by.
	match tasti.Scorer
	pred  func(tasti.Annotation) bool
}

// spec translates a request into scoring functions and a predicate for the
// server's corpus.
func (s *server) spec(req queryRequest) querySpec {
	// On the text and speech corpora the statistic is the predicate itself.
	matchOnly := func(value string, pred func(tasti.Annotation) bool) querySpec {
		match := tasti.Scorer{Name: "match/" + value, Score: tasti.MatchScore(pred)}
		return querySpec{score: match, match: match, pred: pred}
	}
	switch s.name {
	case "wikisql":
		op := strings.ToUpper(req.Class)
		return matchOnly(op, func(ann tasti.Annotation) bool {
			return ann.(tasti.TextAnnotation).Operator == op
		})
	case "common-voice":
		gender := strings.ToLower(req.Class)
		return matchOnly(gender, func(ann tasti.Annotation) bool {
			return ann.(tasti.SpeechAnnotation).Gender == gender
		})
	default:
		pred := func(ann tasti.Annotation) bool {
			return ann.(tasti.VideoAnnotation).Count(req.Class) >= req.Count
		}
		return querySpec{
			score: tasti.Scorer{Name: "count/" + req.Class, Score: tasti.CountScore(req.Class)},
			match: tasti.Scorer{Name: fmt.Sprintf("match/%s/%d", req.Class, req.Count), Score: tasti.MatchScore(pred)},
			pred:  pred,
		}
	}
}

// queryError maps a failed query to a response: cancellations and breaker
// rejections are the caller's problem or a temporary outage (503); an
// exhausted label budget or a saturated label store is backpressure (429 with
// Retry-After and the tenant's budget position — reached only when the query
// could not even produce a partial answer, since mid-query exhaustion
// degrades instead); anything else is a server error (500).
func (s *server) queryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case r.Context().Err() != nil:
		httpError(w, http.StatusServiceUnavailable, "query canceled or timed out")
	case errors.Is(err, tasti.ErrBudgetExhausted), errors.Is(err, tasti.ErrLabelStoreSaturated):
		s.rejectOverBudget(w, r, err)
	case errors.Is(err, tasti.ErrBreakerOpen):
		httpError(w, http.StatusServiceUnavailable, "labeler circuit open: "+err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// rejectOverBudget answers 429: Retry-After (saturation clears as in-flight
// calls drain; exhaustion clears when caps are raised or reset, so the value
// is advisory) plus the requesting tenant's remaining budget in
// X-Tasti-Budget-Remaining and the global pool in
// X-Tasti-Budget-Global-Remaining, each omitted when that scope is unlimited.
func (s *server) rejectOverBudget(w http.ResponseWriter, r *http.Request, err error) {
	tenantLeft, globalLeft := s.budget.Remaining(r.Header.Get("X-Tasti-Tenant"))
	w.Header().Set("Retry-After", "30")
	if tenantLeft != tasti.BudgetUnlimited {
		w.Header().Set("X-Tasti-Budget-Remaining", strconv.FormatInt(tenantLeft, 10))
	}
	if globalLeft != tasti.BudgetUnlimited {
		w.Header().Set("X-Tasti-Budget-Global-Remaining", strconv.FormatInt(globalLeft, 10))
	}
	httpError(w, http.StatusTooManyRequests, "label budget exhausted or label store saturated: "+err.Error())
}

// query runs a /query/* request: readiness, decode, spec, then one Run of
// the query build returns over the version the request pins, labeling
// through the label store bound to the serve chain
// (retry/breaker/deadline), with budget admission keyed by X-Tasti-Tenant and
// a free lookup into the version's own annotations, called with the request's
// context so a disconnected client cancels in-flight calls. It books what the
// query read and spent — into the request's ledger entry and
// tasti_labelstore_hits_total (the bound labeler leaves its hits to its
// caller to count), on failure as well — and ok is false once it has written
// the response.
func (s *server) query(w http.ResponseWriter, r *http.Request, build func(queryRequest, querySpec) tasti.Query) (ans tasti.Answer, ok bool) {
	var req queryRequest
	if s.notReady(w) || !s.decode(w, r, &req) {
		return ans, false
	}
	v := s.index.Pin()
	sc := scopeFrom(r.Context())
	labels := s.labels.Bind(s.target, s.budget, r.Header.Get("X-Tasti-Tenant"), v.AnnotationOf)
	ans, err := v.Run(r.Context(), build(req, s.spec(req)), labels, sc.rootSpan())
	sc.book(ans)
	s.labelHits.Add(ans.Hits)
	if err != nil {
		s.queryError(w, r, err)
		return ans, false
	}
	return ans, true
}

func (s *server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	ans, ok := s.query(w, r, func(req queryRequest, q querySpec) tasti.Query {
		return tasti.Query{Aggregate: &tasti.AggregateQuery{Score: q.score, ErrTarget: req.Err, Seed: s.seed + 1}}
	})
	if !ok {
		return
	}
	res := ans.Aggregate
	writeJSON(w, http.StatusOK, aggregateBody{
		Degraded: res.Degraded, Estimate: res.Estimate, HalfWidth: res.HalfWidth, LabelCalls: res.LabelerCalls,
	})
}

// The query routes' response bodies. Each declares its fields in sorted key
// order — the order encoding/json writes a map's keys in — so a body encodes
// to the bytes of the map[string]interface{} it replaced. A nil slice still
// encodes as null.
type (
	aggregateBody struct {
		Degraded   bool    `json:"degraded"`
		Estimate   float64 `json:"estimate"`
		HalfWidth  float64 `json:"half_width"`
		LabelCalls int64   `json:"label_calls"`
	}
	selectBody struct {
		Degraded   bool  `json:"degraded"`
		LabelCalls int64 `json:"label_calls"`
		Returned   int   `json:"returned"`
		SampleIDs  []int `json:"sample_ids"`
		// Threshold is nil when no sampled record was positive: the query
		// then returns everything and there is no cutoff to report.
		Threshold *float64 `json:"threshold"`
	}
	limitBody struct {
		Cracked    int   `json:"cracked"`
		Degraded   bool  `json:"degraded"`
		Exhausted  bool  `json:"exhausted"`
		Found      []int `json:"found"`
		LabelCalls int64 `json:"label_calls"`
	}
)

func (s *server) handleSelect(w http.ResponseWriter, r *http.Request) {
	ans, ok := s.query(w, r, func(req queryRequest, q querySpec) tasti.Query {
		return tasti.Query{Select: &tasti.SelectQuery{Match: q.match, Budget: req.Budget, Recall: req.Recall, Seed: s.seed + 2}}
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, renderSelect(ans.Selection, ans.Returned))
}

// renderSelect renders a settled select of returned records: the set's size
// and its first 20 IDs — null when the set is empty — never the set itself.
func renderSelect(sel tasti.Selection, returned int) selectBody {
	return selectBody{
		Degraded: sel.Degraded, LabelCalls: sel.OracleCalls, Returned: returned,
		SampleIDs: sel.IDs(20), Threshold: finite(sel.Threshold),
	}
}

func (s *server) handleLimit(w http.ResponseWriter, r *http.Request) {
	ans, ok := s.query(w, r, func(req queryRequest, q querySpec) tasti.Query {
		return tasti.Query{Limit: &tasti.LimitQuery{Score: q.score, Pred: q.pred, K: req.K, Crack: req.Crack}}
	})
	if !ok {
		return
	}
	cracked := 0
	if ans.Crack != nil {
		cracked = s.index.CrackAll(ans.Crack)
	}
	res := ans.Limit
	writeJSON(w, http.StatusOK, limitBody{
		Cracked: cracked, Degraded: res.Degraded, Exhausted: res.Exhausted, Found: res.Found, LabelCalls: res.OracleCalls,
	})
}

// writeJSON encodes v before committing the status line, so a value
// encoding/json refuses (a non-finite float, say) answers 500 with an error
// body instead of the intended status over an empty one.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		json.NewEncoder(&buf).Encode(map[string]string{"error": "encoding response: " + err.Error()}) //nolint:errcheck // a string map always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes()) //nolint:errcheck // best-effort response write
}

// finite returns &v, or nil — JSON null — when v is ±Inf or NaN, which JSON
// cannot carry.
func finite(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
