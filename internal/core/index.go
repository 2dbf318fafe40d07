// Package core builds the TASTI index: Algorithm 1's construction pipeline
// (pre-trained embeddings → FPF training-data mining → triplet training → FPF
// cluster-representative selection → min-k distance table), its checkpoint,
// and its snapshot format. A built Index is the input to package shard, whose
// Index is the one type that answers queries and takes writes — cracks and
// appends — as copy-on-write versions; core keeps the propagation kernel both
// share (PropagateKRange) and the unsharded Propagate the benchmark prices.
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
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ann"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/labeler"
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
	// uniformly at random.
	FPFCluster bool
	// RandomRepFraction is the fraction of representatives chosen at random
	// when FPFCluster is set ("we mix a small fraction of random clusters").
	RandomRepFraction float64
	// BucketKey discretizes annotations for triplet sampling; required when
	// DoTrain is set.
	BucketKey triplet.BucketKey
	// Train overrides the triplet-training hyperparameters; when zero,
	// triplet.DefaultConfig is used.
	Train triplet.Config
	// ApproxTable computes the min-k distance table with an IVF
	// approximate-nearest-neighbor index instead of exact scans — a
	// scalability extension beyond the paper. Neighbor lists may miss true
	// nearest representatives with small probability.
	ApproxTable bool
	// ANNProbe is the number of IVF cells probed per record when
	// ApproxTable is set (default 4).
	ANNProbe int
	// Quantize trains a uint8 code plane over the final embeddings and
	// scans it — instead of the float64 rows — in every candidate-generation
	// sweep (FPF selection, table build, cracking, appends, IVF probing),
	// reranking bound survivors through the exact kernels. The built index,
	// cracked tables, and all query answers are bitwise identical with the
	// plane on or off; the plane trades ~1/8 the scan bandwidth and resident
	// scan memory for a small rerank overhead. Persisted as the v3
	// embeddings.quant snapshot frame.
	Quantize bool
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
	// reliability middleware, ANN probe counts, and degraded/resumed
	// accounting (metric catalogue in docs/OBSERVABILITY.md). Instruments
	// only record — they never feed back into the pipeline — so a build is
	// bitwise identical with telemetry on or off; disabled telemetry costs
	// one branch per instrumentation point. Not persisted by Save.
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
	// CheckpointEvery, when positive, flushes the build checkpoint through
	// CheckpointSink after every CheckpointEvery newly paid-for labels, so a
	// hard kill (power loss, OOM, kill -9) loses at most one interval of
	// labeler spend instead of the whole build. Checkpoint-restored and
	// cache-hit labels are free and do not count toward the interval.
	// Flushing is record-only and never feeds back into the pipeline, so the
	// built index is bitwise identical with it on or off.
	CheckpointEvery int
	// CheckpointSink receives a consistent point-in-time clone of the
	// checkpoint at each periodic flush; cmd/tastiquery wires it to an
	// atomic, fsynced file replacement (snapshot.WriteFile). Sink calls are
	// serialized. A sink failure stops further flushing and fails the build —
	// a checkpoint that silently stopped persisting would be false safety.
	// Required when CheckpointEvery > 0.
	CheckpointSink func(*Checkpoint) error
	// Seed makes construction deterministic.
	Seed int64
}

// DefaultConfig returns the full TASTI-T configuration used across the
// evaluation.
func DefaultConfig(trainingBudget, numReps int, key triplet.BucketKey, seed int64) Config {
	return Config{
		TrainingBudget:    trainingBudget,
		NumReps:           numReps,
		K:                 5,
		EmbedDim:          64,
		DoTrain:           true,
		FPFMining:         true,
		FPFCluster:        true,
		RandomRepFraction: 0.1,
		BucketKey:         key,
		Seed:              seed,
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
	// its parallel sub-phases: FPF representative selection, representative
	// annotation, and min-k distance-table construction.
	RepSelectWall, RepLabelWall, TableWall time.Duration
	// TripletSteps is the number of optimizer steps taken (0 for TASTI-PT).
	TripletSteps int
	// QuantCandidates and QuantReranked account the quantized plane's
	// pruning during construction (zero when Config.Quantize is off):
	// code-plane rows examined, and the subset that survived the bound and
	// was reranked through the exact kernels.
	QuantCandidates, QuantReranked int64

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
	// ResumedLabels is the number of annotations restored from a build
	// checkpoint instead of being paid for again.
	ResumedLabels int
	// CheckpointFlushes is the number of periodic checkpoint flushes the
	// Config.CheckpointEvery policy pushed through the sink (including the
	// catch-up flush at each labeling phase end).
	CheckpointFlushes int64
	// DegradedReps lists representatives dropped as permanently
	// unlabelable (ascending); the min-k table re-weights over the
	// remaining representatives.
	DegradedReps []int
	// DegradedTrain lists training records dropped as permanently
	// unlabelable (ascending).
	DegradedTrain []int
}

// Degraded reports whether the index was built without some of its planned
// labels (see Config.AllowDegraded).
func (s BuildStats) Degraded() bool {
	return len(s.DegradedReps) > 0 || len(s.DegradedTrain) > 0
}

// TotalLabelCalls returns all target-labeler invocations spent building the
// index.
func (s BuildStats) TotalLabelCalls() int64 { return s.TrainLabelCalls + s.RepLabelCalls }

// Index is a built TASTI index.
type Index struct {
	// Embedder maps raw features to the semantic space.
	Embedder embed.Embedder
	// Embeddings holds every record's embedding as one contiguous matrix
	// (record = row), needed for cracking and appends. It flows by reference
	// through build, query, snapshot, and serve layers.
	Embeddings vecmath.Matrix
	// Quant is the uint8 code plane of Embeddings (zero value when
	// Config.Quantize was off): same rows, 1 byte per element, plus the
	// trained scale/offset and decode-error bound. Scans stream it for
	// candidate generation and rerank through Embeddings — see
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
// Labeler invocations are cached and counted; the counts land in
// Index.Stats.
func Build(cfg Config, ds *dataset.Dataset, lab labeler.Labeler) (*Index, error) {
	return BuildResumable(cfg, ds, lab, nil)
}

// BuildResumable is Build with checkpointed labeling: successful labels are
// recorded into ckpt as the build progresses, and a failure that survives
// the configured retry/degradation policy returns a *BuildInterruptedError
// carrying the checkpoint. Re-invoking with that checkpoint (or one restored
// with LoadCheckpoint) resumes the build, spending zero labeler invocations
// on already-labeled records — everything else in the pipeline is cheap and
// deterministic, so it is simply recomputed. A nil ckpt starts fresh.
func BuildResumable(cfg Config, ds *dataset.Dataset, lab labeler.Labeler, ckpt *Checkpoint) (*Index, error) {
	if err := checkConfig(cfg, ds); err != nil {
		return nil, err
	}
	if ckpt == nil {
		ckpt = NewCheckpoint(cfg, ds)
	} else if err := ckpt.compatible(cfg, ds); err != nil {
		return nil, err
	}
	// All checkpoint label writes — serial training loop and parallel rep
	// workers alike — go through the flusher, whose mutex both makes them
	// race-free and serializes the periodic durability flushes.
	fl := newCkptFlusher(cfg, ckpt)

	// Assemble the reliability chain inside-out: per-call deadline closest
	// to the labeler, retries above it (so a timed-out attempt is retried),
	// then invocation counting, then the cache — counting below the cache
	// keeps cache hits (training/representative overlaps and
	// checkpoint-restored labels) free, matching the BuildStats field docs.
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
	cached := labeler.NewCached(counting)
	cached.Warm(ckpt.Labeled)

	var stats BuildStats
	stats.ResumedLabels = len(ckpt.Labeled)
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
		stats.CheckpointFlushes = fl.Flushes()
	}

	// Phase 1: pre-trained embeddings over all records.
	embedStart := time.Now()
	sp := cfg.TraceSpan.Child("embed/pretrained")
	pre := embed.NewPretrained(ds.FeatureDim(), cfg.EmbedDim, cfg.Seed)
	preEmb := embed.AllPar(pre, ds, cfg.Parallelism)
	sp.End()
	stats.EmbedWall += time.Since(embedStart)

	// Phase 2: optional triplet training on a mined, labeled training set.
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
			if _, failed := ckpt.Failed[id]; failed && cfg.AllowDegraded {
				stats.DegradedTrain = append(stats.DegradedTrain, id)
				continue
			}
			ann, err := cached.Label(id)
			if err != nil {
				if errors.Is(err, labeler.ErrPermanent) {
					if _, known := ckpt.Failed[id]; !known {
						ckpt.Failed[id] = err.Error()
					}
					if cfg.AllowDegraded {
						stats.DegradedTrain = append(stats.DegradedTrain, id)
						continue
					}
				}
				finishStats()
				pending := append([]int(nil), trainIDs[i:]...)
				sort.Ints(pending)
				return nil, &BuildInterruptedError{
					Phase:      "training",
					Labeled:    ckpt.LabeledIDs(),
					Pending:    pending,
					LabelCalls: counting.Calls(),
					Checkpoint: ckpt,
					Err:        fmt.Errorf("core: labeling training record %d: %w", id, err),
				}
			}
			fl.record(id, ann)
			keptIDs = append(keptIDs, id)
			keptAnns = append(keptAnns, ann)
		}
		fl.finish()
		if err := fl.Err(); err != nil {
			finishStats()
			return nil, err
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
		trained, err := triplet.Train(tcfg, ds, keptIDs, keptAnns, cfg.BucketKey, cfg.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("core: triplet training: %w", err)
		}
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
	// every candidate-generation sweep below in place of the float64 rows.
	// Pure pruning — every admission decision reranks through the exact
	// kernels — so everything downstream is bitwise identical either way.
	var quant vecmath.QuantMatrix
	var quantStats cluster.QuantScanStats
	if cfg.Quantize {
		sp = cfg.TraceSpan.Child("embed/quantize")
		var err error
		quant, err = vecmath.QuantizeMatrix(embeddings, vecmath.TrainQuantParams(embeddings))
		if err != nil {
			return nil, fmt.Errorf("core: quantizing embeddings: %w", err)
		}
		sp.End()
	}

	// Phase 4: representative selection and annotation, then the distance
	// table.
	clusterStart := time.Now()
	sp = cfg.TraceSpan.Child("cluster/select")
	repRand := xrand.Split(cfg.Seed, "reps")
	var reps []int
	if cfg.FPFCluster {
		reps, quantStats = cluster.FPFMixedPar(repRand, embeddings, quant, cfg.NumReps, cfg.RandomRepFraction, cfg.Parallelism)
	} else {
		reps = cluster.RandomReps(repRand, ds.Len(), cfg.NumReps)
	}
	sp.SetAttr("reps", len(reps))
	sp.End()
	stats.RepSelectWall = time.Since(clusterStart)

	// Annotate the representatives concurrently: reps are distinct, the
	// counting/caching wrappers are mutex-guarded, and each rep's annotation
	// (or error) lands in its own slot, so the outcome is the same at every
	// worker count. ckpt.Failed is read-only during the loop; ckpt.Labeled
	// writes go through the flusher mutex (fl.record), which also gives
	// periodic durability while this — the expensive phase — is in flight.
	labelStart := time.Now()
	sp = cfg.TraceSpan.Child("cluster/label")
	before := counting.Calls()
	repAnns := make([]dataset.Annotation, len(reps))
	repErrs := make([]error, len(reps))
	parallel.For(cfg.Parallelism, len(reps), func(i int) {
		id := reps[i]
		if msg, failed := ckpt.Failed[id]; failed && cfg.AllowDegraded {
			repErrs[i] = fmt.Errorf("core: representative %d failed in a previous run (%s): %w", id, msg, labeler.ErrPermanent)
			return
		}
		a, err := cached.Label(id)
		if err != nil {
			repErrs[i] = fmt.Errorf("core: labeling representative %d: %w", id, err)
			return
		}
		repAnns[i] = a
		fl.record(id, a)
	})
	// Resolve outcomes serially in selection order: record every success in
	// the checkpoint first, then either degrade around permanent failures or
	// return a resumable interruption.
	annotations := make(map[int]dataset.Annotation, len(reps))
	var pending []int
	var firstErr error
	for i, rep := range reps {
		if repErrs[i] == nil {
			// The worker already recorded the label through fl.record.
			annotations[rep] = repAnns[i]
			continue
		}
		err := repErrs[i]
		if errors.Is(err, labeler.ErrPermanent) {
			if _, known := ckpt.Failed[rep]; !known {
				ckpt.Failed[rep] = err.Error()
			}
			if cfg.AllowDegraded {
				stats.DegradedReps = append(stats.DegradedReps, rep)
				continue
			}
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
			Labeled:    ckpt.LabeledIDs(),
			Pending:    pending,
			LabelCalls: counting.Calls(),
			Checkpoint: ckpt,
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
	fl.finish()
	if err := fl.Err(); err != nil {
		finishStats()
		return nil, err
	}
	stats.RepLabelCalls = counting.Calls() - before
	stats.RepLabelWall = time.Since(labelStart)
	sp.SetAttr("label_calls", stats.RepLabelCalls)
	sp.End()

	tableStart := time.Now()
	sp = cfg.TraceSpan.Child("cluster/table")
	tableK := cfg.K
	if tableK > len(liveReps) {
		tableK = len(liveReps)
	}
	var table *cluster.Table
	if cfg.ApproxTable {
		nprobe := cfg.ANNProbe
		if nprobe <= 0 {
			nprobe = 4
		}
		annCfg := ann.DefaultConfig(len(liveReps), cfg.Seed)
		annCfg.Parallelism = cfg.Parallelism
		annCfg.Telemetry = cfg.Telemetry
		annCfg.Quantize = cfg.Quantize
		approx, err := ann.BuildTableApprox(embeddings, liveReps, tableK, nprobe, annCfg)
		if err != nil {
			return nil, fmt.Errorf("core: approximate distance table: %w", err)
		}
		table = approx
		sp.SetAttr("mode", "ivf")
	} else {
		var st cluster.QuantScanStats
		table, st = cluster.BuildTableQuantPar(embeddings, quant, liveReps, tableK, cfg.Parallelism)
		quantStats.Add(st)
		if cfg.Quantize {
			sp.SetAttr("mode", "exact-quant")
		} else {
			sp.SetAttr("mode", "exact")
		}
	}
	sp.End()
	stats.TableWall = time.Since(tableStart)
	stats.ClusterWall = time.Since(clusterStart)
	stats.QuantCandidates = quantStats.Candidates
	stats.QuantReranked = quantStats.Reranked
	finishStats()
	publishBuildMetrics(cfg.Telemetry, stats)

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
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink == nil {
		return errors.New("core: CheckpointEvery needs a CheckpointSink")
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
