package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// ErrQueueSaturated is returned by Submit when the ingest queue is full —
// the backpressure signal cmd/tastiserve maps to HTTP 429.
var ErrQueueSaturated = errors.New("ingest: queue saturated")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("ingest: ingester closed")

// DefaultQueueDepth bounds the number of requests awaiting the writer loop.
const DefaultQueueDepth = 256

// DefaultMaxBatchRecords bounds how many records the writer loop coalesces
// into one WAL frame (and one fsync).
const DefaultMaxBatchRecords = 1024

// Config wires an Ingester.
type Config struct {
	// WAL is the durability log. Required.
	WAL *WAL
	// Apply makes a durable batch visible: it must append the records to the
	// serving index (a shard.Index write — queries read the version they
	// pinned and need no lock from the caller) and extend any side state
	// (dataset, drift window). Called from the writer goroutine only, after
	// the batch is fsynced and acked. An Apply error poisons the ingester:
	// the records are safe in the WAL and replay on the next boot, but this
	// process stops accepting writes.
	Apply func(Batch) error
	// QueueDepth bounds pending requests (<= 0: DefaultQueueDepth).
	QueueDepth int
	// MaxBatchRecords bounds per-frame coalescing (<= 0: DefaultMaxBatchRecords).
	MaxBatchRecords int
	// Telemetry receives the tasti_ingest_* metrics (nil disables).
	Telemetry *telemetry.Registry
}

// request is one Submit call in flight to the writer loop.
type request struct {
	features [][]float64
	anns     []dataset.Annotation
	enqueued time.Time
	done     chan result
	// span is the submitter's request span when the request is being traced
	// (nil otherwise). The writer loop hangs wal/fsync and apply children off
	// it so a sampled ingest trace shows the full durability pipeline.
	span *telemetry.Span
}

type result struct {
	ids []int
	err error
}

// Ingester is the single-writer streaming append pipeline:
//
//	Submit -> bounded queue -> writer loop: [coalesce -> WAL.Append (fsync)
//	       -> ack Submitters -> Apply]
//
// The ack happens strictly after the WAL fsync, so a nil Submit error is a
// durability receipt: the records survive kill -9 and replay into the index
// on the next boot. Visibility follows immediately via Apply — a query
// racing an ack may or may not see the new records, but never a torn state,
// because Apply publishes them as one index version.
type Ingester struct {
	cfg   Config
	queue chan *request

	mu      sync.Mutex
	stopped bool
	failed  error // poisoned: first Apply/WAL error

	wg sync.WaitGroup

	mAcked     *telemetry.Counter
	mRejected  *telemetry.Counter
	gQueue     *telemetry.Gauge
	hAckSecs   *telemetry.Histogram
	hBatchSize *telemetry.Histogram
}

// New builds an Ingester; Start launches its writer loop.
func New(cfg Config) (*Ingester, error) {
	if cfg.WAL == nil {
		return nil, errors.New("ingest: Config.WAL is required")
	}
	if cfg.Apply == nil {
		return nil, errors.New("ingest: Config.Apply is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxBatchRecords <= 0 {
		cfg.MaxBatchRecords = DefaultMaxBatchRecords
	}
	g := &Ingester{
		cfg:   cfg,
		queue: make(chan *request, cfg.QueueDepth),
	}
	if reg := cfg.Telemetry; reg != nil {
		g.mAcked = reg.Counter("tasti_ingest_acked_total")
		g.mRejected = reg.Counter("tasti_ingest_rejected_total")
		g.gQueue = reg.Gauge("tasti_ingest_queue_depth")
		g.hAckSecs = reg.Histogram("tasti_ingest_ack_seconds", telemetry.DefLatencyBuckets)
		g.hBatchSize = reg.Histogram("tasti_ingest_batch_records",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	}
	return g, nil
}

// Start launches the writer loop.
func (g *Ingester) Start() {
	g.wg.Add(1)
	go g.run()
}

// Err reports the poisoned state: the first writer-loop error, or nil while
// healthy. A poisoned ingester rejects every Submit with that error.
func (g *Ingester) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failed
}

// Pending returns the queued request count (requests, not records).
func (g *Ingester) Pending() int { return len(g.queue) }

// Submit enqueues records and blocks until the writer loop has fsynced their
// WAL frame (the ack) or ctx is done. On a nil error the returned IDs are
// consecutive corpus-global record IDs and the records are durable. A
// ctx cancellation after enqueue does NOT withdraw the records — they may
// still be written, replayed, and applied; the caller just stops waiting.
func (g *Ingester) Submit(ctx context.Context, features [][]float64, anns []dataset.Annotation) ([]int, error) {
	return g.SubmitTraced(ctx, features, anns, nil)
}

// SubmitTraced is Submit carrying a request span: the writer loop opens
// wal/fsync and apply child spans under sp for this request's batch. The
// apply child lands after the ack — visibility follows durability — so it
// appears in trace snapshots taken after Apply completes, not in the ack
// path. A nil sp is exactly Submit.
func (g *Ingester) SubmitTraced(ctx context.Context, features [][]float64, anns []dataset.Annotation, sp *telemetry.Span) ([]int, error) {
	if len(features) == 0 {
		return nil, nil
	}
	if len(anns) != len(features) {
		return nil, fmt.Errorf("ingest: %d features with %d annotations", len(features), len(anns))
	}
	for i, a := range anns {
		if a == nil {
			return nil, fmt.Errorf("ingest: record %d has nil annotation", i)
		}
		if len(features[i]) == 0 {
			return nil, fmt.Errorf("ingest: record %d has no features", i)
		}
	}
	req := &request{features: features, anns: anns, enqueued: time.Now(), done: make(chan result, 1), span: sp}
	// The enqueue attempt stays inside the mutex so Close's channel close
	// cannot race a send: a Submit either completes its non-blocking send
	// before Close marks the ingester stopped, or observes stopped.
	g.mu.Lock()
	switch {
	case g.failed != nil:
		err := g.failed
		g.mu.Unlock()
		return nil, err
	case g.stopped:
		g.mu.Unlock()
		return nil, ErrClosed
	}
	select {
	case g.queue <- req:
		g.gQueue.Set(float64(len(g.queue)))
		g.mu.Unlock()
	default:
		g.mu.Unlock()
		g.mRejected.Add(int64(len(features)))
		return nil, ErrQueueSaturated
	}
	select {
	case res := <-req.done:
		if res.err == nil {
			g.mAcked.Add(int64(len(features)))
			g.hAckSecs.Observe(time.Since(req.enqueued).Seconds())
		}
		return res.ids, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops accepting submissions, drains the queue through the writer
// loop, and seals the WAL. Safe to call once.
func (g *Ingester) Close() error {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return nil
	}
	g.stopped = true
	g.mu.Unlock()
	close(g.queue)
	g.wg.Wait()
	return g.cfg.WAL.Close()
}

// run is the writer loop: coalesce, append+fsync, ack, apply.
func (g *Ingester) run() {
	defer g.wg.Done()
	for req := range g.queue {
		reqs := []*request{req}
		records := len(req.features)
		// Coalesce whatever else is already queued, up to the batch bound.
	coalesce:
		for records < g.cfg.MaxBatchRecords {
			select {
			case more, ok := <-g.queue:
				if !ok {
					break coalesce
				}
				reqs = append(reqs, more)
				records += len(more.features)
			default:
				break coalesce
			}
		}
		g.gQueue.Set(float64(len(g.queue)))

		b := Batch{
			Base:     g.cfg.WAL.NextID(),
			Features: make([][]float64, 0, records),
			Anns:     make([]dataset.Annotation, 0, records),
		}
		for _, r := range reqs {
			b.Features = append(b.Features, r.features...)
			b.Anns = append(b.Anns, r.anns...)
		}
		// Traced submitters get a wal/fsync child covering the shared
		// encode+fsync (annotated with the coalesced batch size, so a slow
		// fsync attributed to a small request is explainable) and later an
		// apply child. Untraced batches allocate nothing here.
		fsync := childSpans(reqs, "wal/fsync", records)
		err := g.cfg.WAL.Append(b)
		endSpans(fsync)
		if err != nil {
			g.poison(err)
			for _, r := range reqs {
				r.done <- result{err: err}
			}
			continue
		}
		// Durable: ack every submitter with its ID slice, then apply.
		next := b.Base
		for _, r := range reqs {
			ids := make([]int, len(r.features))
			for i := range ids {
				ids[i] = next + i
			}
			next += len(r.features)
			r.done <- result{ids: ids}
		}
		g.hBatchSize.Observe(float64(records))
		apply := childSpans(reqs, "apply", records)
		if err := g.cfg.Apply(b); err != nil {
			g.poison(fmt.Errorf("ingest: applying batch at %d: %w", b.Base, err))
		}
		endSpans(apply)
	}
}

// childSpans opens one named child under every traced request in the batch,
// tagged with the coalesced record count. Returns nil (no allocation) when
// no request in the batch is traced — the common case.
func childSpans(reqs []*request, name string, batchRecords int) []*telemetry.Span {
	var out []*telemetry.Span
	for _, r := range reqs {
		if r.span == nil {
			continue
		}
		c := r.span.Child(name)
		c.SetAttr("batch_records", batchRecords)
		out = append(out, c)
	}
	return out
}

func endSpans(spans []*telemetry.Span) {
	for _, c := range spans {
		c.End()
	}
}

// poison latches the first fatal writer-loop error.
func (g *Ingester) poison(err error) {
	g.mu.Lock()
	if g.failed == nil {
		g.failed = err
	}
	g.mu.Unlock()
}
