// Package core builds the TASTI index: Algorithm 1's construction pipeline
// (pre-trained embeddings → FPF training-data mining → triplet training → one
// FPF sweep selecting the cluster representatives and their min-k distance
// table), labeling through a label store that makes an interrupted build
// resumable. A built Index is the input to package shard, whose Index is the
// one type that answers queries and takes writes — cracks and appends — as
// copy-on-write versions; core keeps the one propagation both run
// (PropagateK, PropagateNearest).
//
// # Concurrency contract
//
// Build parallelizes internally to Config.Parallelism workers through
// internal/parallel, and the built index is bitwise identical at every
// worker count for a fixed seed (see docs/ARCHITECTURE.md for how each
// phase preserves that). A built Index is never mutated by this package:
// Propagate and Save are read-only and safe to call concurrently.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/triplet"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// Config parameterizes index construction. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// TrainingBudget (N1) is the number of records labeled to build the
	// triplet training set.
	TrainingBudget int
	// NumReps (N2) is the number of cluster representatives to annotate.
	NumReps int
	// K is how many nearest representatives each record retains (paper
	// default 5).
	K int
	// EmbedDim is the embedding dimensionality (paper default 128).
	EmbedDim int
	// DoTrain selects triplet training (TASTI-T) over raw pre-trained
	// embeddings (TASTI-PT).
	DoTrain bool
	// FPFMining selects training records by FPF over pre-trained embeddings
	// rather than uniformly at random.
	FPFMining bool
	// FPFCluster selects cluster representatives by FPF rather than
	// uniformly at random, mixing in randomRepFraction of random ones.
	FPFCluster bool
	// BucketKey discretizes annotations for triplet sampling; required when
	// DoTrain is set.
	BucketKey triplet.BucketKey
	// Train overrides the triplet-training hyperparameters; when zero,
	// triplet.DefaultConfig is used.
	Train triplet.Config
	// Parallelism bounds the worker count for construction and propagation
	// (<= 0 uses all CPUs). Results are bitwise identical at every value;
	// the knob only trades wall-clock time for CPU.
	Parallelism int
	// Retry, when enabled, wraps the target labeler with retry middleware
	// (exponential backoff, seeded jitter) for the whole build, so transient
	// labeler faults cost retries instead of aborting the build. The built
	// index is bitwise identical to a fault-free build; the overhead lands
	// in BuildStats.LabelRetries.
	Retry labeler.RetryPolicy
	// LabelTimeout, when positive, bounds every target-labeler invocation;
	// calls over the limit fail with labeler.ErrLabelTimeout (retryable).
	LabelTimeout time.Duration
	// Telemetry, when non-nil, receives build metrics: phase walls, label
	// calls per phase, per-attempt retry/timeout outcomes from the
	// reliability middleware, and degraded/resumed accounting (metric
	// catalogue in docs/OBSERVABILITY.md). Instruments only record — they
	// never feed back into the pipeline — so a build is bitwise identical
	// with telemetry on or off; disabled telemetry costs one branch per
	// instrumentation point. Not persisted by Save.
	Telemetry *telemetry.Registry
	// TraceSpan, when non-nil, becomes the parent of the build's per-phase
	// spans (embed, train/mine, train/label, train/fit, cluster/select,
	// cluster/label, cluster/table). Like Telemetry it is record-only and
	// nil-safe.
	TraceSpan *telemetry.Span
	// AllowDegraded lets the build complete when some records are
	// permanently unlabelable (labeler.ErrPermanent): failed training
	// records are dropped from the triplet set and failed representatives
	// from the min-k table, so propagation re-weights over the labeled
	// representatives only. The degraded sets are reported in
	// BuildStats.DegradedReps/DegradedTrain.
	AllowDegraded bool
	// Labels, when non-nil, is the label store the build labels through:
	// a record it already holds costs no invocation, and every label the
	// build buys — training and representatives alike — lands in it. So
	// building again over the store an interrupted build labeled through
	// (restored from its snapshot file after a kill) resumes that build, and
	// a server that builds through its serving store answers queries on
	// training records from it. The build's requests never count as the
	// store's hits or misses and are never refused as saturated (see
	// store.BindBuild). Nil labels through a private store. Not persisted.
	Labels *store.Store
	// Seed makes construction deterministic.
	Seed int64
}

// randomRepFraction is the fraction of representatives an FPF build chooses
// at random: the paper mixes "a small fraction of random clusters" into FPF
// for average-case queries.
const randomRepFraction = 0.1

// DefaultConfig returns the full TASTI-T configuration used across the
// evaluation.
func DefaultConfig(trainingBudget, numReps int, key triplet.BucketKey, seed int64) Config {
	return Config{
		TrainingBudget: trainingBudget,
		NumReps:        numReps,
		K:              5,
		EmbedDim:       64,
		DoTrain:        true,
		FPFMining:      true,
		FPFCluster:     true,
		BucketKey:      key,
		Seed:           seed,
	}
}

// PretrainedConfig returns the TASTI-PT variant: no triplet training, so no
// training-label budget is spent.
func PretrainedConfig(numReps int, seed int64) Config {
	cfg := DefaultConfig(0, numReps, nil, seed)
	cfg.DoTrain = false
	return cfg
}

// BuildStats records what index construction cost.
type BuildStats struct {
	// TrainLabelCalls is the number of target-labeler invocations spent on
	// the triplet training set.
	TrainLabelCalls int64
	// RepLabelCalls is the number of invocations spent annotating cluster
	// representatives (training-set overlaps are cached and free).
	RepLabelCalls int64
	// TrainWall, EmbedWall, ClusterWall are measured wall-clock durations of
	// the pipeline phases.
	TrainWall, EmbedWall, ClusterWall time.Duration
	// RepSelectWall, RepLabelWall, TableWall break ClusterWall down into
	// its parallel sub-phases: representative selection (FPF's min-k lists
	// included), annotation, and the table's finish (layout, or a scan).
	RepSelectWall, RepLabelWall, TableWall time.Duration
	// TripletSteps is the number of optimizer steps taken (0 for TASTI-PT).
	TripletSteps int
	// Reliability accounting (zero for a fault-free, un-resumed build):

	// LabelRetries is the extra labeler attempts the Config.Retry
	// middleware spent recovering transient faults; each one invoked the
	// target labeler, so it bills at the full per-call cost.
	LabelRetries int64
	// RetryWait is the total backoff time slept between retries.
	RetryWait time.Duration
	// LabelTimeouts is the number of invocations cut off by
	// Config.LabelTimeout.
	LabelTimeouts int64
	// ResumedLabels is the number of records the build needed whose labels
	// Config.Labels already held when it asked, so nothing was paid for them
	// again. A representative the build itself labeled for training is not
	// one.
	ResumedLabels int
	// DegradedReps lists representatives dropped as permanently
	// unlabelable (ascending); the min-k table re-weights over the
	// remaining representatives.
	DegradedReps []int
	// DegradedTrain lists training records dropped as permanently
	// unlabelable (ascending).
	DegradedTrain []int

	// Corpus names the corpus the index was built over (the dataset's
	// Corpus): a snapshot is served only for that corpus, whose record IDs
	// its tables and annotations describe.
	Corpus dataset.Corpus
}

// Degraded reports whether the index was built without some of its planned
// labels (see Config.AllowDegraded).
func (s BuildStats) Degraded() bool {
	return len(s.DegradedReps) > 0 || len(s.DegradedTrain) > 0
}

// TotalLabelCalls returns all target-labeler invocations spent building the
// index.
func (s BuildStats) TotalLabelCalls() int64 { return s.TrainLabelCalls + s.RepLabelCalls }

// BuildInterruptedError reports a Build stopped by a labeler failure it
// could neither retry nor degrade around. Every label bought before it is in
// the build's label store (Config.Labels), so building again over that
// store — or over one restored from its snapshot file — finishes the index
// without paying for them again.
type BuildInterruptedError struct {
	// Phase is the labeling phase that failed: "training" or
	// "representatives".
	Phase string
	// Pending lists the record IDs of the failed phase still awaiting
	// labels, in ascending order.
	Pending []int
	// LabelCalls is the number of labeler invocations this build spent
	// before stopping (labels the store already held are free and excluded).
	LabelCalls int64
	// Err is the failure that stopped the build.
	Err error
}

// Error implements error.
func (e *BuildInterruptedError) Error() string {
	return fmt.Sprintf("core: build interrupted labeling %s (%d pending, %d invocations spent; the labels bought are in the label store): %v",
		e.Phase, len(e.Pending), e.LabelCalls, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As, so callers can
// still detect labeler.ErrBudgetExhausted and friends.
func (e *BuildInterruptedError) Unwrap() error { return e.Err }

// Index is a built TASTI index.
type Index struct {
	// Embedder maps raw features to the semantic space.
	Embedder embed.Embedder
	// Embeddings holds every record's embedding as one contiguous matrix
	// (record = row), needed for cracking and appends. It flows by reference
	// through build, query, snapshot, and serve layers.
	Embeddings vecmath.Matrix
	// Quant is the uint8 code plane of Embeddings: same rows, 1 byte per
	// element, plus the trained scale/offset and decode-error bound. Scans
	// stream it for candidate generation and rerank through Embeddings — see
	// internal/cluster/quant.go. It follows Embeddings through snapshot,
	// shard views, cloning, and appends.
	Quant vecmath.QuantMatrix
	// Table is the min-k distance table over the representatives.
	Table *cluster.Table
	// Annotations caches the target-labeler output for every representative
	// (and any record cracked in later).
	Annotations map[int]dataset.Annotation
	// Stats describes construction cost.
	Stats BuildStats

	cfg Config
}

// ErrNoAnnotation is returned when propagation encounters a representative
// without a cached annotation; it indicates index corruption.
var ErrNoAnnotation = errors.New("core: representative missing annotation")

// ErrNoEmbedder is returned when records are appended to an index without an
// embedding model — e.g. one restored from a snapshot that predates the
// embedder frame.
var ErrNoEmbedder = errors.New("core: index has no embedder; rebuild or keep the original in memory")

// Build constructs a TASTI index over ds using lab as the target labeler.
// Every label goes through Config.Labels (or a private store), so a record
// the store already holds costs no invocation. A failure that survives the
// configured retry and degradation policy returns a *BuildInterruptedError;
// building again over the same store resumes the build, spending nothing on
// the labels it holds — everything else in the pipeline is cheap and
// deterministic, so it is simply recomputed. Invocations are counted into
// Index.Stats.
func Build(cfg Config, ds *dataset.Dataset, lab labeler.Labeler) (*Index, error) {
	if err := checkConfig(cfg, ds); err != nil {
		return nil, err
	}

	// Assemble the reliability chain inside-out: per-call deadline closest
	// to the labeler, retries above it (so a timed-out attempt is retried),
	// then invocation counting, then the label store — counting below the
	// store keeps its hits (labels it held, training/representative
	// overlaps) free, matching the BuildStats field docs.
	base := lab
	var deadline *labeler.Deadline
	if cfg.LabelTimeout > 0 {
		deadline = labeler.NewDeadline(base, cfg.LabelTimeout)
		deadline.SetTelemetry(cfg.Telemetry)
		base = deadline
	}
	var retry *labeler.Retry
	if cfg.Retry.Enabled() {
		retry = labeler.NewRetry(base, cfg.Retry)
		retry.SetTelemetry(cfg.Telemetry)
		base = retry
	}
	counting := labeler.NewCounting(base)
	labels := cfg.Labels
	if labels == nil {
		labels = store.New(store.Options{})
	}
	cached := labels.BindBuild(counting)
	ctx := context.Background()

	stats := BuildStats{Corpus: ds.Corpus}
	// finishStats folds the middleware counters in on every return path
	// that carries stats (including the interrupted one, via the error).
	finishStats := func() {
		if retry != nil {
			stats.LabelRetries = retry.Retries()
			stats.RetryWait = retry.Waited()
		}
		if deadline != nil {
			stats.LabelTimeouts = deadline.Timeouts()
		}
	}

	// Phase 1: pre-trained embeddings over all records.
	embedStart := time.Now()
	sp := cfg.TraceSpan.Child("embed/pretrained")
	pre := embed.NewPretrained(ds.FeatureDim(), cfg.EmbedDim, cfg.Seed)
	preEmb := embed.AllPar(pre, ds, cfg.Parallelism)
	sp.End()
	stats.EmbedWall += time.Since(embedStart)

	// Phase 2: optional triplet training on a mined, labeled training set.
	// failed holds the training records found permanently unlabelable, so a
	// degraded build does not ask for one again as a representative; trained
	// holds the ones labeled, which are no resumed labels as representatives.
	// Both live for this build only: a resumed degraded build asks each
	// failed record once more.
	failed := make(map[int]error)
	trained := make(map[int]bool)
	var embedder embed.Embedder = pre
	if cfg.DoTrain {
		trainStart := time.Now()
		trainSpan := cfg.TraceSpan.Child("train")
		mineSpan := trainSpan.Child("train/mine")
		miner := xrand.Split(cfg.Seed, "mining")
		var trainIDs []int
		if cfg.FPFMining {
			trainIDs = triplet.MineFPFPar(miner, preEmb, cfg.TrainingBudget, cfg.Parallelism)
		} else {
			trainIDs = triplet.MineRandom(miner, ds.Len(), cfg.TrainingBudget)
		}
		mineSpan.End()
		labelSpan := trainSpan.Child("train/label")
		keptIDs := make([]int, 0, len(trainIDs))
		keptAnns := make([]dataset.Annotation, 0, len(trainIDs))
		for i, id := range trainIDs {
			ann, src, err := cached.Resolve(ctx, id)
			if err != nil {
				if cfg.AllowDegraded && errors.Is(err, labeler.ErrPermanent) {
					failed[id] = err
					stats.DegradedTrain = append(stats.DegradedTrain, id)
					continue
				}
				finishStats()
				pending := append([]int(nil), trainIDs[i:]...)
				sort.Ints(pending)
				return nil, &BuildInterruptedError{
					Phase:      "training",
					Pending:    pending,
					LabelCalls: counting.Calls(),
					Err:        fmt.Errorf("core: labeling training record %d: %w", id, err),
				}
			}
			if src == store.FromStore {
				stats.ResumedLabels++
			}
			trained[id] = true
			keptIDs = append(keptIDs, id)
			keptAnns = append(keptAnns, ann)
		}
		sort.Ints(stats.DegradedTrain)
		stats.TrainLabelCalls = counting.Calls()
		labelSpan.SetAttr("label_calls", stats.TrainLabelCalls)
		labelSpan.End()

		tcfg := cfg.Train
		if tcfg.Steps == 0 {
			tcfg = triplet.DefaultConfig(cfg.EmbedDim, cfg.Seed)
		}
		tcfg.EmbedDim = cfg.EmbedDim
		fitSpan := trainSpan.Child("train/fit")
		fitSpan.SetAttr("steps", tcfg.Steps)
		trained, fit, err := triplet.Fit(tcfg, ds, keptIDs, keptAnns, cfg.BucketKey, cfg.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("core: triplet training: %w", err)
		}
		fitSpan.SetAttr("active_steps", fit.ActiveSteps)
		fitSpan.SetAttr("forwarded_rows", fit.ForwardedRows)
		fitSpan.End()
		embedder = trained
		stats.TripletSteps = tcfg.Steps
		stats.TrainWall = time.Since(trainStart)
		trainSpan.End()
	}

	// Phase 3: final embeddings.
	embedStart = time.Now()
	sp = cfg.TraceSpan.Child("embed/final")
	var embeddings vecmath.Matrix
	if cfg.DoTrain {
		embeddings = embed.AllPar(embedder, ds, cfg.Parallelism)
	} else {
		embeddings = preEmb
	}
	sp.End()
	stats.EmbedWall += time.Since(embedStart)

	// Quantized plane: trained over the final embeddings, then streamed by
	// the FPF selection sweep below (and later by cracks) in place of the
	// float64 rows. Pure pruning — every admission decision reranks through
	// the exact kernels — so everything downstream is bitwise what the float
	// sweep computes. A table rescan reads the float rows only.
	sp = cfg.TraceSpan.Child("embed/quantize")
	quant, err := vecmath.QuantizeMatrix(embeddings, vecmath.TrainQuantParams(embeddings))
	if err != nil {
		return nil, fmt.Errorf("core: quantizing embeddings: %w", err)
	}
	sp.End()

	// Phase 4: representative selection and annotation, then the distance
	// table, which an exact FPF build keeps from the selection sweep.
	clusterStart := time.Now()
	sp = cfg.TraceSpan.Child("cluster/select")
	repRand := xrand.Split(cfg.Seed, "reps")
	var reps []int
	var sel *cluster.Selection
	if cfg.FPFCluster {
		sel = cluster.SelectPar(repRand, embeddings, quant, cfg.NumReps, randomRepFraction, cfg.K, cfg.Parallelism)
		reps = sel.Reps
	} else {
		reps = cluster.RandomReps(repRand, ds.Len(), cfg.NumReps)
	}
	sp.SetAttr("reps", len(reps))
	sp.End()
	stats.RepSelectWall = time.Since(clusterStart)

	// Annotate the representatives concurrently: reps are distinct, the
	// counting wrapper and the label store are safe for concurrent use, and
	// each rep's annotation (or error) lands in its own slot, so the outcome
	// is the same at every worker count. failed and trained are read-only
	// here.
	labelStart := time.Now()
	sp = cfg.TraceSpan.Child("cluster/label")
	before := counting.Calls()
	repAnns := make([]dataset.Annotation, len(reps))
	repErrs := make([]error, len(reps))
	repHeld := make([]bool, len(reps))
	parallel.For(cfg.Parallelism, len(reps), func(i int) {
		id := reps[i]
		if err, ok := failed[id]; ok {
			repErrs[i] = fmt.Errorf("core: representative %d failed as a training record: %w", id, err)
			return
		}
		a, src, err := cached.Resolve(ctx, id)
		if err != nil {
			repErrs[i] = fmt.Errorf("core: labeling representative %d: %w", id, err)
			return
		}
		repAnns[i], repHeld[i] = a, src == store.FromStore && !trained[id]
	})
	// Resolve outcomes serially in selection order: degrade around permanent
	// failures, or return a resumable interruption.
	annotations := make(map[int]dataset.Annotation, len(reps))
	var pending []int
	var firstErr error
	for i, rep := range reps {
		if repErrs[i] == nil {
			annotations[rep] = repAnns[i]
			if repHeld[i] {
				stats.ResumedLabels++
			}
			continue
		}
		err := repErrs[i]
		if cfg.AllowDegraded && errors.Is(err, labeler.ErrPermanent) {
			stats.DegradedReps = append(stats.DegradedReps, rep)
			continue
		}
		pending = append(pending, rep)
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		finishStats()
		sort.Ints(pending)
		return nil, &BuildInterruptedError{
			Phase:      "representatives",
			Pending:    pending,
			LabelCalls: counting.Calls(),
			Err:        firstErr,
		}
	}
	// Degraded mode: drop the unlabelable representatives so the min-k table
	// — and with it all propagation weights — covers labeled reps only.
	liveReps := reps
	if len(stats.DegradedReps) > 0 {
		sort.Ints(stats.DegradedReps)
		liveReps = make([]int, 0, len(reps)-len(stats.DegradedReps))
		for _, rep := range reps {
			if _, ok := annotations[rep]; ok {
				liveReps = append(liveReps, rep)
			}
		}
		if len(liveReps) == 0 {
			return nil, fmt.Errorf("core: degraded build has no labelable representatives: %w", labeler.ErrPermanent)
		}
	}
	stats.RepLabelCalls = counting.Calls() - before
	stats.RepLabelWall = time.Since(labelStart)
	sp.SetAttr("label_calls", stats.RepLabelCalls)
	sp.End()

	tableStart := time.Now()
	sp = cfg.TraceSpan.Child("cluster/table")
	tableK := min(cfg.K, len(liveReps))
	var table *cluster.Table
	if sel != nil && len(liveReps) == len(reps) {
		table = sel.Table()
		sp.SetAttr("mode", "sweep")
	} else {
		table = cluster.BuildTablePar(embeddings, liveReps, tableK, cfg.Parallelism)
		sp.SetAttr("mode", "rescan")
	}
	sp.End()
	stats.TableWall = time.Since(tableStart)
	stats.ClusterWall = time.Since(clusterStart)
	finishStats()
	publishBuildMetrics(cfg.Telemetry, stats)
	if sel != nil {
		PublishQuantStats(cfg.Telemetry, sel.Stats)
	}

	return &Index{
		Embedder:    embedder,
		Embeddings:  embeddings,
		Quant:       quant,
		Table:       table,
		Annotations: annotations,
		Stats:       stats,
		cfg:         cfg,
	}, nil
}

func checkConfig(cfg Config, ds *dataset.Dataset) error {
	if ds.Len() == 0 {
		return errors.New("core: empty dataset")
	}
	if cfg.NumReps <= 0 {
		return fmt.Errorf("core: NumReps must be positive, got %d", cfg.NumReps)
	}
	if cfg.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", cfg.K)
	}
	if cfg.EmbedDim <= 0 {
		return fmt.Errorf("core: EmbedDim must be positive, got %d", cfg.EmbedDim)
	}
	if cfg.DoTrain {
		if cfg.TrainingBudget < 2 {
			return fmt.Errorf("core: DoTrain needs TrainingBudget >= 2, got %d", cfg.TrainingBudget)
		}
		if cfg.BucketKey == nil {
			return errors.New("core: DoTrain needs a BucketKey")
		}
	}
	return nil
}

// Config returns the configuration the index was built with.
func (ix *Index) Config() Config { return ix.cfg }

// SetParallelism overrides the worker count Propagate uses (p <= 0 uses all
// CPUs). It is the knob for indexes restored with Load, whose configuration
// is not persisted. It must not be called concurrently with any other method.
func (ix *Index) SetParallelism(p int) { ix.cfg.Parallelism = p }

// NumRecords returns the number of indexed records.
func (ix *Index) NumRecords() int { return ix.Embeddings.Rows() }
