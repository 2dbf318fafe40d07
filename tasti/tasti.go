// Package tasti is the public API of this repository: trainable semantic
// indexes (TASTI) for machine-learning-based queries over unstructured data,
// after Kang et al., SIGMOD 2022.
//
// A TASTI index is built once per dataset from three ingredients: a target
// labeler (the expensive model or human annotator that turns raw records
// into structured annotations), a closeness heuristic over those annotations
// (a BucketKey), and a labeling budget. The index trains an embedding with a
// triplet loss so that records with close annotations embed close, annotates
// a small set of cluster representatives chosen by furthest-point-first
// clustering, and then answers arbitrary queries by propagating scores from
// the representatives to every record — no per-query proxy model training.
//
// The typical flow:
//
//	ds, _ := tasti.GenerateDataset("night-street", 20000, 1)
//	oracle := tasti.NewOracle(ds, "mask-rcnn", tasti.MaskRCNNCost)
//	cfg := tasti.DefaultConfig(600, 900, tasti.VideoBucketKey(0.5), 1)
//	built, _ := tasti.Build(cfg, ds, oracle)
//	index, _ := tasti.SplitIndex(built, 1) // the served index
//
//	// Aggregation: average cars per frame with an error guarantee.
//	scores, _ := index.Pin().Propagate(tasti.CountScore("car"))
//	res, _ := tasti.EstimateAggregate(tasti.AggregateOptions{ErrTarget: 0.05, Delta: 0.05, Seed: 2},
//	    ds.Len(), scores, tasti.CountScore("car"), oracle)
//
// The same index serves selection queries with recall guarantees
// (SelectWithRecall) and limit queries over rare events. A served query is
// one IndexVersion.Run: it reads the version's cached proxy column, labels
// through a LabelStore binding and answers an aggregate, a select or a limit
// (Query). Labels paid for during query execution — label through
// NewLabelStore(...).Bind(...) and read them back with
// LabelStore.Annotations — are folded back into it with
// ShardedIndex.CrackAll, and new records arrive with
// ShardedIndex.AppendRecords. Build's Index is the builder's output: it
// saves, loads and splits, and the ShardedIndex it splits into is the one
// type that answers queries and takes writes.
package tasti

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/query/aggregation"
	"repro/internal/query/limitq"
	"repro/internal/query/predagg"
	"repro/internal/query/supg"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/telemetry/ledger"
	"repro/internal/triplet"
	"repro/internal/vecmath"
)

// Version identifies this release of the repository — the value
// tasti_build_info exposes so every scrape names the running binary.
const Version = "0.9.0"

// SnapshotFormatVersion is the framed snapshot container's current format
// version, the one every artifact is written at. Datasets, WAL segments and
// label-store snapshots still open back to snapshot.MinVersion;
// an index snapshot must be v7 or later (one record range, one frame per
// array, the plane's fit-time bound in its meta) — an older one fails with
// ErrSnapshotVersion and is rebuilt.
const SnapshotFormatVersion = snapshot.Version

// Data model.
type (
	// Record is one unstructured data record.
	Record = dataset.Record
	// Dataset is a corpus of records with hidden ground truth.
	Dataset = dataset.Dataset
	// Corpus names a generated corpus by its GenerateDataset arguments
	// (Dataset.Corpus): the corpus an index snapshot or a label store
	// describes (LabelStoreOptions.Corpus); a snapshot of either is read
	// back only for the same corpus.
	Corpus = dataset.Corpus
	// Annotation is a target labeler's structured output.
	Annotation = dataset.Annotation
	// Box is one detected object in a video annotation.
	Box = dataset.Box
	// VideoAnnotation is the object-detection schema.
	VideoAnnotation = dataset.VideoAnnotation
	// TextAnnotation is the question-to-SQL schema.
	TextAnnotation = dataset.TextAnnotation
	// SpeechAnnotation is the speaker-attribute schema.
	SpeechAnnotation = dataset.SpeechAnnotation
)

// Labelers.
type (
	// Labeler produces annotations for record IDs; implementations meter
	// and bill each invocation.
	Labeler = labeler.Labeler
	// CostModel is a labeler's per-invocation cost.
	CostModel = labeler.CostModel
	// ContextLabeler is the optional context-aware extension of Labeler;
	// the reliability middleware implements it so cancellation reaches
	// retries, backoff sleeps, and in-flight calls.
	ContextLabeler = labeler.ContextLabeler
)

// Calibrated per-call labeler costs from the paper's Section 3.4.
var (
	// MaskRCNNCost bills ~1/3 s per frame (3 fps).
	MaskRCNNCost = labeler.MaskRCNNCost
	// SSDCost bills a cheap detector at ~150 fps.
	SSDCost = labeler.SSDCost
	// HumanCost bills crowd annotation at ~$0.07 per record.
	HumanCost = labeler.HumanCost
)

// NewOracle wraps a dataset's ground truth as an exact target labeler.
func NewOracle(ds *Dataset, name string, cost CostModel) Labeler {
	return labeler.NewOracle(ds, name, cost)
}

// NewLiveOracle is NewOracle over a corpus that grows while it is served:
// each call labels from the view corpus returns at that moment, which the
// owner publishes whole (cmd/tastiserve's ingest apply does, ahead of the
// index version that makes the new records queryable).
func NewLiveOracle(corpus func() *Dataset, name string, cost CostModel) Labeler {
	return labeler.NewLiveOracle(corpus, name, cost)
}

// NewCountingLabeler wraps a labeler with invocation accounting; use it to
// meter query costs.
func NewCountingLabeler(inner Labeler) *labeler.Counting {
	return labeler.NewCounting(inner)
}

// GenerateDataset builds one of the synthetic evaluation corpora:
// "night-street", "taipei", "amsterdam", "wikisql", or "common-voice".
func GenerateDataset(name string, size int, seed int64) (*Dataset, error) {
	return dataset.Generate(name, size, seed)
}

// Reliability: fault injection, retry/backoff, per-call deadlines, and
// circuit breaking for labeler tiers; a build resumes over its label store
// (Config.Labels). See
// docs/RELIABILITY.md for the failure model and composition order.
type (
	// RetryPolicy parameterizes retry middleware: exponential backoff with
	// seeded jitter and a hard attempt budget. Set Config.Retry to retry
	// transient labeler faults during index construction.
	RetryPolicy = labeler.RetryPolicy
	// BreakerPolicy parameterizes a circuit breaker over a labeler tier.
	BreakerPolicy = labeler.BreakerPolicy
	// BreakerState is a circuit breaker's position: closed, open, or
	// half-open.
	BreakerState = labeler.BreakerState
	// Breaker is a circuit-breaking labeler wrapper; its State/Trips/
	// Rejected methods feed health endpoints.
	Breaker = labeler.Breaker
	// FlakyConfig parameterizes deterministic fault injection for chaos
	// testing.
	FlakyConfig = labeler.FlakyConfig
	// FaultStats counts the faults a flaky labeler injected.
	FaultStats = labeler.FaultStats
	// BuildInterruptedError reports a build stopped by an unrecoverable
	// labeler failure; building again over the same label store resumes it.
	BuildInterruptedError = core.BuildInterruptedError
)

// Labeler failure taxonomy. Transient faults, per-call timeouts, and breaker
// rejections are retryable; permanent per-record failures and exhausted
// budgets are terminal.
var (
	// ErrTransient marks a retryable labeler fault.
	ErrTransient = labeler.ErrTransient
	// ErrPermanent marks a record the labeler can never annotate.
	ErrPermanent = labeler.ErrPermanent
	// ErrLabelTimeout marks a call cut off by a per-call deadline.
	ErrLabelTimeout = labeler.ErrLabelTimeout
	// ErrBreakerOpen marks a call rejected by an open circuit breaker.
	ErrBreakerOpen = labeler.ErrBreakerOpen
	// ErrBudgetExhausted marks a spent invocation budget (terminal, but a
	// build resumes over its label store: see Config.Labels).
	ErrBudgetExhausted = labeler.ErrBudgetExhausted
	// IsRetryable classifies a labeler error as worth retrying.
	IsRetryable = labeler.IsRetryable
	// DefaultRetryPolicy is a retry policy tuned for the simulated tier.
	DefaultRetryPolicy = labeler.DefaultRetryPolicy
)

// NewFlakyLabeler wraps a labeler with deterministic fault injection: seeded
// transient errors, latency spikes, and permanently unlabelable records.
func NewFlakyLabeler(inner Labeler, cfg FlakyConfig) *labeler.Flaky {
	return labeler.NewFlaky(inner, cfg)
}

// NewRetryLabeler wraps a labeler with budgeted, jittered-backoff retries of
// retryable errors.
func NewRetryLabeler(inner Labeler, pol RetryPolicy) *labeler.Retry {
	return labeler.NewRetry(inner, pol)
}

// NewDeadlineLabeler wraps a labeler with a per-call timeout; calls over the
// limit fail with ErrLabelTimeout (retryable).
func NewDeadlineLabeler(inner Labeler, timeout time.Duration) *labeler.Deadline {
	return labeler.NewDeadline(inner, timeout)
}

// NewBreakerLabeler wraps a labeler with a circuit breaker that fails fast
// while the tier is unhealthy.
func NewBreakerLabeler(inner Labeler, pol BreakerPolicy) *Breaker {
	return labeler.NewBreaker(inner, pol)
}

// Index construction.
type (
	// Config parameterizes index construction. Config.Parallelism bounds
	// the worker count for construction, and SplitIndex carries it over to
	// propagation, cracking and appends (<= 0 uses all CPUs); for a fixed
	// Seed the built index is bitwise identical at every parallelism level,
	// so the knob only trades wall-clock time for CPU. See
	// docs/ARCHITECTURE.md for the pipeline's concurrency design.
	Config = core.Config
	// Index is a built TASTI index: SplitIndex it into the ShardedIndex that
	// serves queries, takes cracks and appends, and saves and loads.
	Index = core.Index
	// ScoreFunc turns an annotation into a numeric query-specific score.
	ScoreFunc = core.ScoreFunc
	// BucketKey discretizes annotations into closeness buckets for triplet
	// training.
	BucketKey = triplet.BucketKey
	// TrainConfig holds the triplet-training hyperparameters within Config.
	TrainConfig = triplet.Config
)

// DefaultConfig returns the full TASTI-T configuration: trainingBudget
// records labeled for triplet training, numReps cluster representatives
// annotated, FPF mining and clustering on.
func DefaultConfig(trainingBudget, numReps int, key BucketKey, seed int64) Config {
	return core.DefaultConfig(trainingBudget, numReps, key, seed)
}

// PretrainedConfig returns the TASTI-PT variant, which skips triplet
// training and spends no labels on a training set.
func PretrainedConfig(numReps int, seed int64) Config {
	return core.PretrainedConfig(numReps, seed)
}

// Build constructs an index over ds, spending target-labeler invocations
// through lab and the label store Config.Labels: a failure it can neither
// retry nor degrade around returns a *BuildInterruptedError, and building
// again over the same store — restored from its snapshot file after a kill —
// spends nothing on the labels it holds.
func Build(cfg Config, ds *Dataset, lab Labeler) (*Index, error) {
	return core.Build(cfg, ds, lab)
}

// Sharded serving. A built index is served as one record range that every
// query reads through a scatter-gather layer over contiguous shard views,
// bitwise identical to the unsharded index at every shard count. See
// docs/SHARDING.md for what the shard count still does.
type (
	// ShardedIndex is a served TASTI index: one record range and one
	// representative set, behind one scatter-gather query surface. It
	// publishes immutable IndexVersions: reads take no lock, writers (crack,
	// append, whole-index swap) are serialized among themselves only.
	ShardedIndex = shard.Index
	// IndexVersion is one immutable state of a ShardedIndex, from
	// ShardedIndex.Pin: everything a request reads from it — columns,
	// annotations, record and representative counts — describes that one
	// state, whatever is published meanwhile.
	IndexVersion = shard.Version
	// Shard is a read-only view of one contiguous record range of an
	// IndexVersion.
	Shard = shard.Shard
	// Scorer is a scoring function together with the name that identifies
	// it across requests — the key of the proxy column a Query reads. A
	// column is one Scorer's propagated scores for one index generation,
	// computed by the first query that needs it and shared by every later
	// one until a crack, append or reload starts a new generation.
	Scorer = shard.Scorer
	// ProxyColumnStats is ShardedIndex.ColumnStats's residency report.
	ProxyColumnStats = shard.ColumnStats
	// Query is one query for IndexVersion.Run: exactly one of Aggregate,
	// Select and Limit is set.
	Query = shard.Query
	// AggregateQuery estimates a Scorer's mean over the corpus (EBS).
	AggregateQuery = shard.Aggregate
	// SelectQuery selects the records a 0/1 Scorer matches at a recall
	// target (SUPG).
	SelectQuery = shard.Select
	// LimitQuery finds K records a predicate accepts, cracking what it
	// labeled when asked.
	LimitQuery = shard.Limit
	// Answer is IndexVersion.Run's result, with the records and shards it
	// read and its label hits and misses.
	Answer = shard.Answer
)

// SplitIndex serves a built index over a scatter of n contiguous shard
// views, taking ownership of ix (it must not be used afterwards).
// SplitIndex(ix, 1) serves one shard.
func SplitIndex(ix *Index, n int) (*ShardedIndex, error) { return shard.Split(ix, n) }

// LoadShardedIndex deserializes an index saved with ShardedIndex.Save —
// the one index snapshot format — with the shard count it was saved at.
// Check IndexVersion.CheckCorpus before serving it.
var LoadShardedIndex = shard.Load

// KernelName reports which vector-distance kernel implementation this
// process dispatches to (e.g. "avx2+fma" or "scalar"). Observability only:
// every implementation is bitwise identical.
func KernelName() string { return vecmath.KernelName() }

// Durable persistence. ShardedIndex.Save, LabelStore.Save, and Dataset.Save
// write a framed, checksummed container (magic, format version, per-section
// and whole-file CRC-32C); the Load functions verify it end to end and
// classify every corruption with the typed errors below. See docs/RELIABILITY.md
// "Persistence format" for the layout, version policy, and error taxonomy.
var (
	// ErrSnapshotBadMagic marks a file that is not a framed snapshot at all.
	ErrSnapshotBadMagic = snapshot.ErrBadMagic
	// ErrSnapshotKind marks a framed snapshot of the wrong artifact type,
	// e.g. a label-store file passed to LoadShardedIndex.
	ErrSnapshotKind = snapshot.ErrKind
	// ErrSnapshotVersion marks a format version this build cannot read.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotChecksum marks content that fails CRC verification.
	ErrSnapshotChecksum = snapshot.ErrChecksum
	// ErrSnapshotTruncated marks a snapshot cut short, e.g. by a torn write.
	ErrSnapshotTruncated = snapshot.ErrTruncated
	// ErrSnapshotFrameTooLarge marks a section length beyond the decoder's
	// sanity cap — corrupt or hostile, either way not worth allocating for.
	ErrSnapshotFrameTooLarge = snapshot.ErrFrameTooLarge
	// ErrSnapshotMalformed marks intact frames whose contents disagree — a
	// shape that does not match its data, shards that cannot serve together.
	ErrSnapshotMalformed = snapshot.ErrMalformed
	// ErrSnapshotCorpus marks an index snapshot of another corpus than the
	// one it is read to serve (IndexVersion.CheckCorpus), or of none.
	ErrSnapshotCorpus = shard.ErrCorpus
)

// WriteFileAtomic writes a file through write and atomically replaces path
// with the result: temp file in the same directory, fsync, rename, directory
// fsync. A crash mid-write leaves the previous file intact; readers never
// observe a partial file. All the repository's durable artifacts (index
// snapshots, label stores, generated corpora, traces) go through it.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	return snapshot.WriteFile(path, write)
}

// ReadSnapshotFile opens path and passes it to read, recording load
// telemetry. Pair with LoadShardedIndex/LoadDataset, or LabelStore.Restore.
func ReadSnapshotFile(path string, read func(r io.Reader) error) error {
	return snapshot.ReadFile(path, read)
}

// SetSnapshotTelemetry points the persistence layer's save/load counters and
// latency histograms at reg (nil disables them). The persistence layer is
// process-wide, so this is too.
func SetSnapshotTelemetry(reg *MetricsRegistry) { snapshot.SetTelemetry(reg) }

// Closeness heuristics for the built-in schemas.
var (
	// VideoBucketKey groups frames by per-class object counts and coarse
	// positions (cell is the position grid size in [0,1]).
	VideoBucketKey = triplet.VideoBucketKey
	// TextBucketKey groups questions by SQL operator and predicate count.
	TextBucketKey = triplet.TextBucketKey
	// SpeechBucketKey groups snippets by speaker gender and age decade.
	SpeechBucketKey = triplet.SpeechBucketKey
)

// Built-in scoring functions.
var (
	// CountScore counts boxes of a class in a video annotation.
	CountScore = core.CountScore
	// MatchScore converts a predicate into a 0/1 selection score.
	MatchScore = core.MatchScore
	// AvgXScore scores a frame by its objects' mean x-position.
	AvgXScore = core.AvgXScore
)

// Query processing.
type (
	// AggregateOptions configures EstimateAggregate.
	AggregateOptions = aggregation.Options
	// AggregateResult is EstimateAggregate's output.
	AggregateResult = aggregation.Result
	// SelectOptions configures SelectWithRecall.
	SelectOptions = supg.Options
	// SelectResult is the SUPG output.
	SelectResult = supg.Result
	// Selection is a settled SUPG query whose returned set is kept as its
	// membership rule — proxy at or above the threshold, a sampled record
	// by its last draw's label — as Answer.Selection carries it: Len counts
	// the set and IDs lists its head without materialising it; Result lists
	// it whole.
	Selection = supg.Selection
	// LimitResult is a limit query's output.
	LimitResult = limitq.Result
)

// EstimateAggregate estimates the mean of score over n records with an
// empirical-Bernstein error guarantee, using proxy as a control variate
// (nil runs plain uniform sampling).
func EstimateAggregate(opts AggregateOptions, n int, proxy []float64, score func(Annotation) float64, lab Labeler) (AggregateResult, error) {
	return aggregation.Estimate(opts, n, proxy, score, lab)
}

// SelectWithRecall returns a record set containing at least a target
// fraction of all records matching pred, with probability 1-Delta, spending
// a fixed labeler budget (SUPG recall-target).
func SelectWithRecall(opts SelectOptions, n int, proxy []float64, pred func(Annotation) bool, lab Labeler) (SelectResult, error) {
	return supg.RecallTarget(opts, n, proxy, pred, lab)
}

// FindLimitScan scans records in a caller-supplied, fully materialized scan
// order such as ShardedIndex.LimitOrder's, labeling each until limit records
// matching pred are found.
func FindLimitScan(opts LimitOptions, limit int, order []int, pred func(Annotation) bool, lab Labeler) (LimitResult, error) {
	return limitq.RunScan(opts, limit, order, pred, lab)
}

// Observability: a dependency-free metrics registry and span tracer that
// every layer is instrumented against — build phases, reliability
// middleware, the label store, query execution, and ingest. All
// instruments are nil-safe (a disabled registry costs one branch) and
// record-only (telemetry-on builds are bitwise identical to telemetry-off).
// See docs/OBSERVABILITY.md for the metric catalogue and span taxonomy.
type (
	// MetricsRegistry owns a process's counters, gauges, and histograms and
	// renders them in Prometheus text format (cmd/tastiserve's /metrics).
	MetricsRegistry = telemetry.Registry
	// Trace is a tree of timed spans; cmd/tastiquery and cmd/tastibench
	// dump it with -trace-out.
	Trace = telemetry.Trace
	// Span is one named, timed node of a Trace; Config.TraceSpan parents
	// the build's per-phase spans.
	Span = telemetry.Span
	// LimitOptions carries FindLimitScan's instrumentation.
	LimitOptions = limitq.Options
	// MetricCounter is a monotonically-increasing atomic counter.
	MetricCounter = telemetry.Counter
	// MetricGauge is an atomic float gauge.
	MetricGauge = telemetry.Gauge
	// MetricHistogram is a fixed-bucket histogram with quantile readout.
	MetricHistogram = telemetry.Histogram
)

// NewMetricsRegistry returns an empty enabled metrics registry. Pass it via
// Config.Telemetry, query Options.Telemetry, and the SetTelemetry methods
// on the reliability middleware; a nil *MetricsRegistry everywhere disables
// collection.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// DefLatencyBuckets is the default histogram bucket layout for latencies,
// spanning 100µs to 30s roughly logarithmically.
var DefLatencyBuckets = telemetry.DefLatencyBuckets

// NewTrace starts a span tree rooted at a span named name.
func NewTrace(name string) *Trace { return telemetry.NewTrace(name) }

// Request-scoped observability: per-request trace retention, deterministic
// sampling, a Prometheus text-format parser for scrapers, and the per-tenant
// cost ledger behind cmd/tastiserve's /admin/traces and /admin/ledger. All
// of it is record-only — nothing here feeds back into query execution, so
// sampled and unsampled requests produce bitwise-identical results.
type (
	// SpanSnapshot is the serialized form of one span (the /admin/traces and
	// -trace-out schema).
	SpanSnapshot = telemetry.SpanSnapshot
	// TraceSampler deterministically admits a fixed fraction of requests for
	// trace retention.
	TraceSampler = telemetry.Sampler
	// TraceRing is a bounded lock-free ring of retained request traces.
	TraceRing = telemetry.TraceRing
	// TraceEntry is one retained trace, rendered at read time.
	TraceEntry = telemetry.TraceEntry
	// PromFamily is one parsed metric family of a /metrics exposition.
	PromFamily = telemetry.PromFamily
	// PromSample is one parsed sample line of a /metrics exposition.
	PromSample = telemetry.PromSample
	// CostLedger attributes query cost per request and per tenant with a
	// conservation invariant (per-tenant sums equal the global books).
	CostLedger = ledger.Ledger
	// LedgerEntry is the cost record for one finished request.
	LedgerEntry = ledger.Entry
	// LedgerTotals is the rolled-up spend for one tenant or the process.
	LedgerTotals = ledger.Totals
	// LedgerSnapshot is the /admin/ledger payload.
	LedgerSnapshot = ledger.Snapshot
	// WALDiskStats is the WAL's on-disk footprint (the WAL-lag gauges).
	WALDiskStats = ingest.DiskStats
)

var (
	// NewTraceID returns a fresh random 16-hex-char trace identifier.
	NewTraceID = telemetry.NewTraceID
	// NewTraceSampler returns a sampler admitting roughly rate of requests.
	NewTraceSampler = telemetry.NewSampler
	// NewTraceRing returns a ring retaining the last capacity traces.
	NewTraceRing = telemetry.NewTraceRing
	// NewCostLedger returns a ledger retaining the last n request entries.
	NewCostLedger = ledger.New
	// ParsePrometheus parses a text-format 0.0.4 exposition the way a
	// scraper would (used by cmd/tastistat and the /metrics tests).
	ParsePrometheus = telemetry.ParsePrometheus
	// PromFamilyNames returns the sorted family names of a parsed scrape.
	PromFamilyNames = telemetry.FamilyNames
)

// Label amortization: the one record→annotation store, shared by every
// query processor, with singleflight coalescing (concurrent requests for the
// same record issue exactly one oracle call) and a global budget manager
// with per-tenant admission. A query labeled through
// NewLabelStore(...).Bind(...) leaves what it paid for in
// LabelStore.Annotations, ready for ShardedIndex.CrackAll. Exhaustion mid-query is a
// graceful outcome — aggregation and selection return partial estimates
// flagged Degraded, limit queries return the verified prefix — and the store
// persists as its own snapshot container so labels bought today are free
// tomorrow. See docs/RELIABILITY.md "Label budgets and degraded answers".
type (
	// LabelStore is the record→annotation store.
	LabelStore = store.Store
	// BoundLabeler is LabelStore.Bind's labeler. Its Resolve also reports
	// where each label came from — the store, the index, another caller's
	// in-flight call, or the oracle — and whether that spent nothing (Hit).
	BoundLabeler = store.Bound
	// LabelStoreOptions configures NewLabelStore and LoadLabelStore.
	LabelStoreOptions = store.Options
	// BudgetManager admits oracle spend against global and per-tenant caps,
	// debiting at call time and refunding failed calls.
	BudgetManager = store.Budget
	// BudgetConfig parameterizes a BudgetManager; zero or negative caps are
	// unlimited.
	BudgetConfig = store.BudgetConfig
)

var (
	// NewLabelStore returns an empty label store.
	NewLabelStore = store.New
	// LoadLabelStore deserializes a store saved with LabelStore.Save,
	// verifying frame and whole-file checksums; LabelStore.Restore reads one
	// into an existing store.
	LoadLabelStore = store.Load
	// NewBudgetManager returns a budget manager over cfg.
	NewBudgetManager = store.NewBudget
	// ErrLabelStoreSaturated marks a label request rejected because the
	// store's in-flight table is full — backpressure, not failure (HTTP 429).
	ErrLabelStoreSaturated = store.ErrSaturated
)

// BudgetUnlimited disables a budget cap when assigned to BudgetConfig.
const BudgetUnlimited = store.Unlimited

// Predicate-aggregation queries (the extension the paper's Section 2.2
// points to): estimate the mean of a score over only the records matching a
// predicate, both requiring the target labeler.
type (
	// PredicateAggregateOptions configures EstimateAggregateWithPredicate.
	PredicateAggregateOptions = predagg.Options
	// PredicateAggregateResult is its output.
	PredicateAggregateResult = predagg.Result
)

// EstimateAggregateWithPredicate estimates E[score | pred] with stratified
// two-phase sampling driven by the proxy scores, at a fixed labeler budget.
// Stratify by a proxy that carries the score's magnitude (e.g. propagated
// counts), not just the predicate probability.
func EstimateAggregateWithPredicate(opts PredicateAggregateOptions, n int, proxy []float64, pred func(Annotation) bool, score func(Annotation) float64, lab Labeler) (PredicateAggregateResult, error) {
	return predagg.Estimate(opts, n, proxy, pred, score, lab)
}

// Streaming ingest: the crash-safe write path of internal/ingest. A WAL
// (write-ahead log in the snapshot frame format) makes appends durable before
// they are acked, an Ingester batches them into the index as writes on it
// (ShardedIndex.AppendRecords; queries read the version they pinned), a
// DriftDetector watches how far recent appends land from their nearest
// representative, and a Refresher cracks the worst-covered appends into the
// live index in the background. See docs/RELIABILITY.md for the WAL format
// and the replay/truncation semantics.
type (
	// WAL is the crash-safe append log: a directory of checksummed segments.
	WAL = ingest.WAL
	// WALOptions tunes OpenWAL; the zero value is usable.
	WALOptions = ingest.WALOptions
	// IngestBatch is one WAL frame: a contiguous run of appended records.
	IngestBatch = ingest.Batch
	// ReplayStats reports what ReplayWAL recovered and where it stopped.
	ReplayStats = ingest.ReplayStats
	// Ingester is the single-writer streaming append pipeline; a nil Submit
	// error is a durability receipt.
	Ingester = ingest.Ingester
	// IngestConfig wires an Ingester.
	IngestConfig = ingest.Config
	// DriftDetector compares recent appends' nearest-representative distance
	// against the build-time baseline.
	DriftDetector = ingest.DriftDetector
	// Refresher cracks the worst-covered appended records into the live
	// index as new representatives, in the background.
	Refresher = ingest.Refresher
	// RefreshConfig wires a Refresher.
	RefreshConfig = ingest.RefreshConfig
	// RefreshStats summarizes one refresh pass.
	RefreshStats = ingest.RefreshStats
	// AnnotationEnvelope is the tagged JSON form of an Annotation, used by
	// the /ingest HTTP body.
	AnnotationEnvelope = dataset.AnnotationEnvelope
)

var (
	// OpenWAL opens (creating if needed) a WAL directory whose next record is
	// nextID, rotating to a fresh segment.
	OpenWAL = ingest.OpenWAL
	// ReplayWAL walks a WAL directory and hands every acked batch at or above
	// record `from` to apply.
	ReplayWAL = ingest.Replay
	// NewIngester builds an Ingester; call Start to launch its writer loop.
	NewIngester = ingest.New
	// NewDriftDetector builds a drift detector over a sliding window of
	// nearest-representative distances.
	NewDriftDetector = ingest.NewDriftDetector
	// NewRefresher builds a background refresher.
	NewRefresher = ingest.NewRefresher
	// AnnotationEnvelopeOf wraps an Annotation for JSON transport.
	AnnotationEnvelopeOf = dataset.EnvelopeOf
	// LoadDataset deserializes a corpus saved with Dataset.Save.
	LoadDataset = dataset.Load

	// ErrIngestQueueSaturated is Submit's backpressure signal (HTTP 429).
	ErrIngestQueueSaturated = ingest.ErrQueueSaturated
	// ErrIngestClosed is returned by Submit after Close.
	ErrIngestClosed = ingest.ErrClosed
	// ErrRefreshInProgress rejects a refresh while another is running.
	ErrRefreshInProgress = ingest.ErrRefreshInProgress
)
