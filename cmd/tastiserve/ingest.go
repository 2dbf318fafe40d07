package main

// Streaming ingest wiring: POST /ingest appends records through a crash-safe
// WAL (internal/ingest), replayed into the index at boot; drift past the
// build-time baseline triggers a background refresh that cracks the
// worst-covered appended records into the live index; POST /admin/refresh
// forces one and folds the result into the snapshot, truncating covered WAL
// segments. See docs/RELIABILITY.md for the durability contract and the
// crashed-ingester runbook.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/tasti"
)

// ingestDatasetFile is the extended corpus's durable home inside -wal-dir:
// the ground truth for appended records, saved by the refresh path BEFORE the
// index snapshot so a crash between the two leaves the dataset at least as
// new as the index it must explain.
const ingestDatasetFile = "dataset.snap"

func (s *server) ingestDatasetPath() string {
	return filepath.Join(s.opts.walDir, ingestDatasetFile)
}

// tenantLimiter caps how many records each tenant may have pending in the
// ingest pipeline, so one firehose cannot starve the shared queue. A batch
// larger than the cap is never offered to it: no wait would admit it.
type tenantLimiter struct {
	mu      sync.Mutex
	cap     int
	pending map[string]int
}

func (l *tenantLimiter) reserve(tenant string, n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending[tenant]+n > l.cap {
		return false
	}
	if l.pending == nil {
		l.pending = make(map[string]int)
	}
	l.pending[tenant] += n
	return true
}

func (l *tenantLimiter) release(tenant string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending[tenant] -= n; l.pending[tenant] <= 0 {
		delete(l.pending, tenant)
	}
}

// restoreIngestDataset loads the extended corpus saved by the refresh path,
// falling back to the freshly generated base corpus when the file is absent
// or does not describe this server's configuration. Called before snapshot
// validation, so an index snapshot covering appended records is accepted.
func (s *server) restoreIngestDataset(base *tasti.Dataset) *tasti.Dataset {
	path := s.ingestDatasetPath()
	var saved *tasti.Dataset
	err := tasti.ReadSnapshotFile(path, func(r io.Reader) error {
		var lerr error
		saved, lerr = tasti.LoadDataset(r)
		return lerr
	})
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.log.Warn("saved ingest dataset unusable; starting from the generated corpus",
				"path", path, "err", err.Error())
		}
		return base
	}
	if saved.Name != base.Name || saved.Len() < base.Len() || saved.FeatureDim() != base.FeatureDim() {
		s.log.Warn("saved ingest dataset does not extend the configured corpus; ignoring it",
			"path", path, "saved_name", saved.Name, "saved_records", saved.Len(),
			"base_records", base.Len())
		return base
	}
	s.log.Info("ingest dataset restored", "path", path,
		"records", saved.Len(), "appended", saved.Len()-base.Len())
	return saved
}

// initIngest replays the WAL into the freshly loaded (or built) index,
// extends the dataset with replayed annotations, and starts the WAL, drift
// detector, refresher, and ingester. Runs inside buildIndex before the ready
// flag flips, so every handler — including /ingest itself — answers 503 for
// the whole replay.
func (s *server) initIngest(index *tasti.ShardedIndex, ds *tasti.Dataset) error {
	opts := s.opts
	if index.Embedder() == nil {
		return fmt.Errorf("streaming ingest needs an index with an embedding model; the snapshot predates embedder persistence — delete %s to rebuild", opts.snapshotPath)
	}
	if ds.Len() < index.NumRecords() {
		return fmt.Errorf("corrupt ingest state: index covers %d records but the dataset has %d", index.NumRecords(), ds.Len())
	}

	from := index.NumRecords()
	start := time.Now()
	st, err := tasti.ReplayWAL(opts.walDir, from, func(b tasti.IngestBatch) error {
		for i := range b.Features {
			if id := b.Base + i; id == ds.Len() {
				ds.Records = append(ds.Records, tasti.Record{ID: id, Features: slices.Clone(b.Features[i])})
				ds.Truth = append(ds.Truth, b.Anns[i])
			}
		}
		_, aerr := index.AppendRecords(b.Features)
		return aerr
	})
	if err != nil {
		return fmt.Errorf("replaying WAL %s: %w", opts.walDir, err)
	}
	s.reg.Gauge("tasti_wal_replay_records").Set(float64(st.Records))
	s.reg.Gauge("tasti_wal_replay_skipped").Set(float64(st.Skipped))
	s.reg.Gauge("tasti_wal_replay_segments").Set(float64(st.Segments))
	if st.Truncated {
		// Not fatal by design: the dropped frames were never acked (or a
		// later epoch's segment already continued past the tear).
		s.reg.Counter("tasti_wal_replay_truncations_total").Inc()
		s.log.Warn("WAL replay dropped a torn or corrupt tail",
			"segment", st.TruncatedSegment, "err", st.Err.Error())
	}
	if st.Records > 0 || st.Skipped > 0 {
		s.log.Info("WAL replayed",
			"records", st.Records, "skipped", st.Skipped, "segments", st.Segments,
			"elapsed_ms", float64(time.Since(start).Microseconds())/1000)
	}
	// Records in the saved dataset but covered by neither the index snapshot
	// nor the WAL (an operator deleted segments or the index snapshot): trim
	// the tail so IDs the WAL will assign next stay contiguous.
	if ds.Len() > index.NumRecords() {
		s.log.Warn("saved dataset extends past WAL coverage; trimming the unreachable tail",
			"dataset_records", ds.Len(), "index_records", index.NumRecords())
		ds.Records = ds.Records[:index.NumRecords()]
		ds.Truth = ds.Truth[:index.NumRecords()]
	}

	wal, err := tasti.OpenWAL(opts.walDir, index.NumRecords(), tasti.WALOptions{Telemetry: s.reg})
	if err != nil {
		return err
	}
	drift := tasti.NewDriftDetector(driftWindow, driftThreshold, s.reg)
	drift.Reset(index.Pin().MeanNearestDistance())

	s.wal = wal
	s.drift = drift
	s.tenants.cap = opts.tenantPendingCap()
	s.refresher, err = tasti.NewRefresher(tasti.RefreshConfig{
		Index:     index,
		Label:     s.labelForRefresh,
		Drift:     drift,
		Budget:    opts.refreshBudget,
		Since:     opts.size,
		Telemetry: s.reg,
	})
	if err != nil {
		wal.Close() //nolint:errcheck // already failing
		return err
	}
	s.ingester, err = tasti.NewIngester(tasti.IngestConfig{
		WAL:             wal,
		Apply:           s.applyIngest,
		MaxBatchRecords: opts.ingestBatch,
		Telemetry:       s.reg,
	})
	if err != nil {
		wal.Close() //nolint:errcheck // already failing
		return err
	}
	s.ingester.Start()
	s.log.Info("streaming ingest enabled",
		"wal_dir", opts.walDir,
		"next_record", index.NumRecords(),
		"auto_refresh", opts.refreshAuto)
	return nil
}

// closeIngest drains queued submissions through the writer loop and seals
// the WAL. Call after the HTTP listener has stopped accepting requests.
func (s *server) closeIngest() {
	if s.ingester == nil {
		return
	}
	if err := s.ingester.Close(); err != nil {
		s.log.Error("closing ingest pipeline", "err", err.Error())
	}
}

// applyIngest is the Ingester's visibility callback: the batch is already
// durable (fsynced and acked), this makes it queryable. It runs on the
// ingester's one apply goroutine — the only appender, so the record count it
// reads cannot move under it. It publishes the corpus view extended with the
// batch's ground truth first and the index version carrying the records
// second (so a query that pinned that version can have any of them labeled),
// waiting only for index writes ahead of it, never for a query. Then it feeds
// the drift detector and may kick off a background refresh.
func (s *server) applyIngest(b tasti.IngestBatch) error {
	n := s.index.NumRecords()
	if b.Base > n {
		return fmt.Errorf("ingest batch starts at record %d but the index covers %d", b.Base, n)
	}
	// Copy-on-write: append through a copy of the published header. Writes
	// land past the length every published view holds.
	ds := *s.corpus.Load()
	for i := range b.Features {
		if id := b.Base + i; id == ds.Len() {
			ds.Records = append(ds.Records, tasti.Record{ID: id, Features: slices.Clone(b.Features[i])})
			ds.Truth = append(ds.Truth, b.Anns[i])
		}
	}
	s.corpus.Store(&ds)
	if lo := n - b.Base; lo < len(b.Features) {
		ids, err := s.index.AppendRecords(b.Features[lo:])
		if err != nil {
			return err
		}
		v := s.index.Pin()
		for _, id := range ids {
			s.drift.Observe(v.NearestDistance(id))
		}
	}
	s.maybeRefresh()
	return nil
}

// maybeRefresh starts a drift-triggered background refresh when enabled. The
// refresher's own single-flight guard makes the racy Triggered/Running reads
// harmless — at most one refresh runs, extras bail out.
func (s *server) maybeRefresh() {
	if !s.opts.refreshAuto || s.refresher.Running() || !s.drift.Triggered() {
		return
	}
	go func() {
		st, err := s.refresher.Refresh(context.Background())
		if err != nil {
			if !errors.Is(err, tasti.ErrRefreshInProgress) {
				s.log.Error("drift-triggered refresh failed; previous index keeps serving", "err", err.Error())
			}
			return
		}
		s.log.Info("drift-triggered refresh complete",
			"cracked", st.Cracked, "baseline", st.Baseline,
			"elapsed_ms", float64(st.Elapsed.Microseconds())/1000)
		if err := s.persistIngestState(); err != nil {
			s.log.Warn("persisting refreshed state failed; WAL retains full coverage", "err", err.Error())
		}
	}()
}

// persistIngestState makes the current serving state durable and reclaims
// WAL space: the extended dataset is saved first (so a crash between the two
// writes never leaves the dataset older than the index), then the sharded
// index snapshot, then every WAL segment fully covered by the snapshot is
// deleted. It saves a pinned version and the corpus view loaded after it —
// which covers it — so serving and ingest carry on meanwhile; persisting only
// keeps two persists from interleaving their file pairs. A no-op without
// -snapshot: the WAL then retains everything and replay covers restarts by
// itself.
func (s *server) persistIngestState() error {
	if s.opts.snapshotPath == "" {
		return nil
	}
	s.persisting.Lock()
	defer s.persisting.Unlock()
	v := s.index.Pin()
	n := v.NumRecords()
	if err := tasti.WriteFileAtomic(s.ingestDatasetPath(), s.corpus.Load().Save); err != nil {
		return err
	}
	if err := tasti.WriteFileAtomic(s.opts.snapshotPath, v.Save); err != nil {
		return err
	}
	removed, err := s.wal.TruncateThrough(n)
	if err != nil {
		return fmt.Errorf("snapshot saved but WAL truncation failed: %w", err)
	}
	s.log.Info("ingest state persisted",
		"snapshot", s.opts.snapshotPath, "records", n, "wal_segments_removed", removed)
	return nil
}

// labelForRefresh supplies annotations to the refresher's crack phase: the
// ground truth that arrived with each appended record's ingest request, from
// the published corpus view. The refresher only offers appended records
// (RefreshConfig.Since is -size, and every snapshot covers the base corpus),
// so a refresh never buys a label.
func (s *server) labelForRefresh(_ context.Context, id int) (tasti.Annotation, error) {
	ds := s.corpus.Load()
	if id >= ds.Len() {
		return nil, fmt.Errorf("refresh: record %d past corpus end %d", id, ds.Len())
	}
	return ds.Truth[id], nil
}

// ingestRecord is one record in a POST /ingest body.
type ingestRecord struct {
	Features   []float64                `json:"features"`
	Annotation tasti.AnnotationEnvelope `json:"annotation"`
}

// ingestRequest is the POST /ingest body.
type ingestRequest struct {
	Records []ingestRecord `json:"records"`
}

// annotationKind maps the corpus to its required annotation schema.
func (s *server) annotationKind() string {
	switch s.name {
	case "wikisql":
		return "text"
	case "common-voice":
		return "speech"
	default:
		return "video"
	}
}

// decodeIngest reads and validates a POST /ingest body under a "decode"
// span, writing the 413/400 taxonomy itself; ok is false when a response
// has already been sent.
func (s *server) decodeIngest(w http.ResponseWriter, r *http.Request, sc *reqScope) (features [][]float64, anns []tasti.Annotation, ok bool) {
	dsp := sc.child("decode")
	defer dsp.End()
	var req ingestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.ingestMaxBodyBytes())).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes; split the batch", tooBig.Limit))
			return nil, nil, false
		}
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, nil, false
	}
	if len(req.Records) == 0 {
		httpError(w, http.StatusBadRequest, "no records")
		return nil, nil, false
	}
	dim := s.dim
	kind := s.annotationKind()
	features = make([][]float64, len(req.Records))
	anns = make([]tasti.Annotation, len(req.Records))
	for i, rec := range req.Records {
		if len(rec.Features) != dim {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("record %d has %d feature dims, corpus %s has %d", i, len(rec.Features), s.name, dim))
			return nil, nil, false
		}
		ann, err := rec.Annotation.Annotation()
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("record %d: %v", i, err))
			return nil, nil, false
		}
		if ann.Kind() != kind {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("record %d has %q annotation, corpus %s needs %q", i, ann.Kind(), s.name, kind))
			return nil, nil, false
		}
		features[i], anns[i] = rec.Features, ann
	}
	dsp.SetAttr("records", len(features))
	return features, anns, true
}

// handleIngest is POST /ingest: append records durably. A 200 is a
// durability receipt — the records' WAL frame was fsynced before the
// response was written, and they replay into the index after kill -9.
//
//	501  ingest disabled (no -wal-dir)
//	503  index building or WAL replaying (readiness), or pipeline closed
//	413  body over -ingest-max-body, or a batch over -ingest-tenant-pending
//	     (split the batch; no retry would admit it)
//	400  malformed body, wrong feature dimension, or wrong annotation schema
//	429  ingest queue saturated, or the tenant's pending cap hit
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.opts.walDir == "" {
		httpError(w, http.StatusNotImplemented, "streaming ingest disabled: start tastiserve with -wal-dir")
		return
	}
	if s.notReady(w) {
		return
	}
	sc := scopeFrom(r.Context())
	features, anns, ok := s.decodeIngest(w, r, sc)
	if !ok {
		return
	}

	tenant := r.Header.Get("X-Tasti-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if len(features) > s.tenants.cap {
		s.reg.Counter("tasti_ingest_tenant_rejections_total").Inc()
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d records exceeds the per-tenant pending cap %d; split the batch", len(features), s.tenants.cap))
		return
	}
	if !s.tenants.reserve(tenant, len(features)) {
		s.reg.Counter("tasti_ingest_tenant_rejections_total").Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q has too many records in flight (cap %d)", tenant, s.tenants.cap))
		return
	}
	defer s.tenants.release(tenant, len(features))

	// The submit span covers enqueue through the durability ack; the writer
	// loop hangs wal/fsync and apply children directly off the request root,
	// the apply one landing after the ack by design (visibility follows
	// durability). The ingester's tasti_ingest_ack_seconds times the same
	// submit-to-ack window.
	ssp := sc.child("submit")
	ssp.SetAttr("records", len(features))
	ids, err := s.ingester.SubmitTraced(r.Context(), features, anns, sc.rootSpan())
	ssp.End()
	if err == nil {
		sc.setRecords(int64(len(ids)))
	}
	if err != nil {
		switch {
		case errors.Is(err, tasti.ErrIngestQueueSaturated):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, tasti.ErrIngestClosed), r.Context().Err() != nil:
			httpError(w, http.StatusServiceUnavailable, "ingest unavailable: "+err.Error())
		default:
			// Poisoned pipeline: the records are safe in the WAL if their
			// frame was written, but this process stopped accepting writes.
			httpError(w, http.StatusInternalServerError, "ingest pipeline failed: "+err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"base":  ids[0],
		"count": len(ids),
	})
}

// handleRefresh is POST /admin/refresh: force one drift-style refresh —
// label the worst-covered appended records and crack them in — then persist
// the dataset and index snapshot and truncate covered WAL segments. 409
// marks a refresh already running, 502 a refresh that failed (the previous
// index keeps serving).
func (s *server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.opts.walDir == "" {
		httpError(w, http.StatusNotImplemented, "streaming ingest disabled: start tastiserve with -wal-dir")
		return
	}
	if s.notReady(w) {
		return
	}
	st, err := s.refresher.Refresh(r.Context())
	if err != nil {
		if errors.Is(err, tasti.ErrRefreshInProgress) {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		httpError(w, http.StatusBadGateway, "refresh failed, previous index still serving: "+err.Error())
		return
	}
	persisted := false
	if perr := s.persistIngestState(); perr != nil {
		s.log.Warn("persisting refreshed state failed; WAL retains full coverage", "err", perr.Error())
	} else {
		persisted = s.opts.snapshotPath != ""
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"cracked":        st.Cracked,
		"baseline":       st.Baseline,
		"elapsed_ms":     float64(st.Elapsed.Microseconds()) / 1000,
		"records":        s.corpus.Load().Len(),
		"snapshot_saved": persisted,
	})
}
