// Command tastiserve builds a TASTI index over a synthetic corpus and serves
// queries over HTTP with a JSON API. The index builds in the background: the
// server comes up immediately, /healthz reports liveness, and /readyz flips
// to 200 once queries can be served.
//
// Usage:
//
//	tastiserve -dataset night-street -size 10000 -addr :8080
//
// Endpoints:
//
//	GET  /healthz          liveness
//	GET  /readyz           readiness + labeler circuit-breaker state
//	GET  /index            index statistics
//	GET  /metrics          Prometheus text-format metrics
//	POST /query/aggregate  {"class":"car","err":0.05}
//	POST /query/select     {"class":"car","count":1,"budget":300,"recall":0.9}
//	POST /query/limit      {"class":"car","count":5,"k":10,"crack":true}
//	POST /ingest           append records durably (needs -wal-dir)
//	POST /admin/reload     swap in the -snapshot file with zero downtime
//	POST /admin/refresh    re-crack drifted appends, snapshot, truncate WAL
//	GET  /admin/traces     retained sampled request traces (?route=, ?min_ms=)
//	GET  /admin/ledger     per-tenant query cost ledger + conservation check
//	GET  /admin/status     one-shot index-health and build-identity snapshot
//
// -snapshot names the index's durable home: loaded at startup when present
// (skipping the labeling spend of a rebuild), written after a fresh build,
// and hot-reloaded — with checksum verification and validation, falling back
// to the serving index on any failure — via POST /admin/reload or SIGHUP.
//
// The index is one record range that propagation and the limit heaps split
// by worker (-parallelism). -shards sets only the view count that /index and
// /admin/status report and the snapshot records; it stays because the
// repository benchmark's child passes it. See docs/ARCHITECTURE.md, "Served
// index".
//
// -wal-dir turns on streaming ingest: POST /ingest bodies are fsynced into a
// write-ahead log before the 200 is written, so an acknowledged record
// survives kill -9 and replays into the index at the next boot. A drift
// detector watches appended records' nearest-representative distances and —
// with -refresh-auto — cracks the worst-covered appends into the live index
// as new representatives, with zero downtime. POST /admin/refresh forces the
// same cycle and then persists the snapshot pair, truncating covered WAL
// segments.
// While -wal-dir is set, /admin/reload is disabled (a stale snapshot swap
// would fork the record-ID sequence the WAL continues from). See
// docs/RELIABILITY.md for the durability contract and runbook.
//
// -label-store, -label-budget, and -tenant-budget are the cost-control
// plane: one label store the index build labels through and every query
// consults before any target-labeler call (hits and coalesced concurrent
// requests spend nothing), persisted as its own snapshot container and
// restored before the build, so a rebuild pays nothing for a label on disk;
// plus global and per-tenant oracle-call budgets.
// A budget exhausted mid-query degrades the answer (partial estimate with a
// widened confidence interval, or the verified prefix of a limit scan)
// instead of failing it; a request that cannot even start answers 429 with
// Retry-After and X-Tasti-Budget-* headers. See docs/RELIABILITY.md "Label
// budgets and degraded answers".
//
// -pprof-addr serves net/http/pprof on a second listener (keep it off
// public interfaces); -log-format selects text or JSON structured logs.
// SIGINT/SIGTERM drain in-flight queries before exiting. See
// docs/RELIABILITY.md for the fault-tolerance knobs and
// docs/OBSERVABILITY.md for the metric catalogue.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on the -pprof-addr listener only
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/tasti"
)

func main() {
	var (
		dsName = flag.String("dataset", "night-street", "corpus: night-street, taipei, amsterdam, wikisql, common-voice")
		size   = flag.Int("size", 10000, "corpus size")
		seed   = flag.Int64("seed", 1, "generation and algorithm seed")
		train  = flag.Int("train", 600, "triplet-training label budget")
		reps   = flag.Int("reps", 900, "cluster representatives to annotate")
		addr   = flag.String("addr", ":8080", "listen address")
		par    = flag.Int("parallelism", 0, "worker count for index construction, propagation, and cracking (<= 0 uses all CPUs)")
		shards = flag.Int("shards", 1, "view count that /index and /admin/status report and the snapshot records; no query reads it (kept for the repository benchmark's child; a loaded -snapshot keeps its own count)")

		queryTimeout  = flag.Duration("query-timeout", 60*time.Second, "per-request budget for /query/ endpoints (0 disables)")
		labelTimeout  = flag.Duration("label-timeout", 0, "per-call target-labeler deadline (0 disables)")
		retries       = flag.Int("retries", 3, "labeler attempts per call, including the first (<= 1 disables retrying)")
		allowDegraded = flag.Bool("allow-degraded", false, "complete the index around permanently unlabelable records")
		faultRate     = flag.Float64("fault-rate", 0, "inject transient labeler faults at this per-attempt probability (chaos serving)")

		snapshotPath = flag.String("snapshot", "", "index snapshot file: loaded at startup if present, saved after a fresh build, hot-reloaded on POST /admin/reload or SIGHUP (empty disables)")

		walDir          = flag.String("wal-dir", "", "write-ahead-log directory: enables POST /ingest with fsync-before-ack durability and crash replay (empty disables)")
		ingestBatch     = flag.Int("ingest-batch", 0, "max records coalesced into one WAL frame and fsync (<= 0 uses the default)")
		ingestMaxBody   = flag.Int64("ingest-max-body", 0, "largest accepted /ingest body in bytes (<= 0 uses 8 MiB)")
		ingestTenantCap = flag.Int("ingest-tenant-pending", 0, "per-tenant in-flight record cap, keyed by X-Tasti-Tenant; a larger batch answers 413 (<= 0 uses 4096)")
		refreshBudget   = flag.Int("refresh-budget", 0, "worst-covered appended records re-cracked per refresh (<= 0 uses the default)")
		refreshAuto     = flag.Bool("refresh-auto", false, "start a background refresh automatically when drift trips")

		labelStorePath = flag.String("label-store", "", "label-store snapshot file the build and every query label through: loaded at startup, before the build, if present; flushed on -label-flush and at drain (empty keeps labels in memory only)")
		labelBudget    = flag.Int64("label-budget", 0, "global serve-path oracle-call budget across all tenants; exhaustion degrades queries and answers 429 (<= 0 = unlimited)")
		tenantBudget   = flag.Int64("tenant-budget", 0, "per-tenant serve-path oracle-call budget, keyed by X-Tasti-Tenant (<= 0 = unlimited)")
		labelFlush     = flag.Duration("label-flush", 30*time.Second, "background label-store flush period (0 disables the loop; the drain path still flushes)")
		labelInflight  = flag.Int("label-inflight", 0, "distinct records with an oracle call in flight before the label store answers 429 (<= 0 uses 1024)")

		traceSample    = flag.Float64("trace-sample", 0.01, "fraction of /query and /ingest requests whose full span tree is retained for GET /admin/traces (0 disables, 1 traces everything; never changes results)")
		traceRing      = flag.Int("trace-ring", 256, "sampled traces retained before the oldest is overwritten (<= 0 uses 256)")
		healthInterval = flag.Duration("health-interval", 15*time.Second, "index-health collector period feeding the radius and WAL-lag gauges (0 disables the loop; GET /admin/status still collects on demand)")

		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		slog.New(slog.NewTextHandler(os.Stderr, nil)).
			Error("unknown -log-format", "format", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	opts := serverOptions{
		dataset:       *dsName,
		size:          *size,
		train:         *train,
		reps:          *reps,
		seed:          *seed,
		parallelism:   *par,
		shards:        *shards,
		queryTimeout:  *queryTimeout,
		labelTimeout:  *labelTimeout,
		allowDegraded: *allowDegraded,
		faultRate:     *faultRate,
		logger:        logger,
		snapshotPath:  *snapshotPath,

		walDir:              *walDir,
		ingestBatch:         *ingestBatch,
		ingestMaxBody:       *ingestMaxBody,
		ingestTenantPending: *ingestTenantCap,
		refreshBudget:       *refreshBudget,
		refreshAuto:         *refreshAuto,

		labelStorePath: *labelStorePath,
		labelBudget:    *labelBudget,
		tenantBudget:   *tenantBudget,
		labelFlush:     *labelFlush,
		labelInflight:  *labelInflight,

		traceSample:    *traceSample,
		traceRing:      *traceRing,
		healthInterval: *healthInterval,
	}
	if *retries > 1 {
		opts.retry = tasti.DefaultRetryPolicy(*seed)
		opts.retry.MaxAttempts = *retries
	}

	srv := newServerShell(opts)
	// Snapshot save/load accounting flows into the same registry /metrics
	// renders.
	tasti.SetSnapshotTelemetry(srv.reg)
	logger.Info("building index in the background", "dataset", *dsName, "records", *size)
	srv.buildAsync()
	srv.startHealthLoop()
	stopLabelFlush := srv.startLabelFlushLoop()

	// SIGHUP hot-reloads the snapshot, the conventional re-read-your-config
	// signal. Failures are contained: the serving index stays.
	if *snapshotPath != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				logger.Info("SIGHUP: reloading index snapshot", "path", *snapshotPath)
				if err := srv.reload(); err != nil {
					logger.Error("SIGHUP reload failed", "err", err.Error())
				}
			}
		}()
	}

	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on
		// http.DefaultServeMux, which only this listener serves — the query
		// listener uses its own mux, so profiling stays off the public port.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err.Error())
			}
		}()
	}

	httpServer := &http.Server{
		Addr:         *addr,
		Handler:      srv.handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 120 * time.Second,
	}

	// Drain in-flight queries on SIGINT/SIGTERM before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logger.Info("shutting down, draining in-flight queries")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- httpServer.Shutdown(shutdownCtx)
	}()

	logger.Info("listening", "addr", *addr)
	if err := httpServer.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener failed", "err", err.Error())
		os.Exit(1)
	}
	if err := <-done; err != nil {
		logger.Error("shutdown failed", "err", err.Error())
		os.Exit(1)
	}
	// With the listener stopped no new submissions can arrive; drain what the
	// ingest queue already acked into the index, then seal the WAL.
	srv.closeIngest()
	// Persist labels bought since the last periodic flush — the next boot
	// starts with every annotation this process paid for.
	stopLabelFlush()
	logger.Info("bye")
}
