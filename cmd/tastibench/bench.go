package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ingest"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/query/aggregation"
	"repro/internal/query/limitq"
	"repro/internal/query/supg"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/triplet"
	"repro/internal/xrand"
	"repro/tasti"
)

// The benchmark suite mirrors the shapes of internal/core's
// BenchmarkBuildParallel and BenchmarkPropagateParallel at workers=1, so a
// committed baseline (BENCH_36.json) stays comparable with `go test -bench`
// output while being runnable from the built binary, and adds the streaming
// write path (WAL append with fsync, the served index's AppendRecords) and
// the three query processors over a propagated proxy. cmd/benchgate compares
// two of these reports.

// BenchResult is one benchmark's steady-state cost.
type BenchResult struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// BenchReport is the JSON document written by -bench-json. Kernel names the
// distance-kernel implementation the run dispatched to (e.g. "avx2+fma"),
// so perf numbers are attributable to the code path that produced them —
// cmd/benchgate ignores it, humans comparing reports should not.
type BenchReport struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Kernel    string `json:"kernel"`
	// QuantBytesPerRecord is the quantized plane's resident bytes per
	// record (the embedding dim — 1 code byte per element), against the
	// 8x-larger float64 rows. Informational like Kernel; benchgate ignores it.
	QuantBytesPerRecord float64                `json:"quant_bytes_per_record"`
	Benchmarks          map[string]BenchResult `json:"benchmarks"`
}

// runBenchSuite runs the suite and writes the report to path atomically.
func runBenchSuite(path string) error {
	rep := BenchReport{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Kernel:     tasti.KernelName(),
		Benchmarks: map[string]BenchResult{},
	}

	buildDS, err := dataset.Generate("night-street", 6000, 1)
	if err != nil {
		return fmt.Errorf("generating build corpus: %w", err)
	}
	buildLab := labeler.NewOracle(buildDS, "oracle", labeler.MaskRCNNCost)
	rep.Benchmarks["build_parallel_w1"] = runBench(func(b *testing.B) {
		cfg := core.PretrainedConfig(600, 2)
		cfg.Parallelism = 1
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(cfg, buildDS, buildLab); err != nil {
				b.Fatal(err)
			}
		}
	})

	propDS, err := dataset.Generate("night-street", 20000, 1)
	if err != nil {
		return fmt.Errorf("generating propagation corpus: %w", err)
	}
	propLab := labeler.NewOracle(propDS, "oracle", labeler.MaskRCNNCost)
	ix, err := core.Build(core.PretrainedConfig(800, 2), propDS, propLab)
	if err != nil {
		return fmt.Errorf("building propagation index: %w", err)
	}
	ix.SetParallelism(1)
	score := core.CountScore("car")
	rep.Benchmarks["propagate_parallel_w1"] = runBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Propagate(score); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The query processors over that corpus, each priced for what a served
	// query pays after propagation: the EBS estimator to a 0.05 error target
	// with the propagated control variate, a 1000-label SUPG recall query,
	// and (below, over the served index's nearest vectors) the limit scan
	// order as far as a scan takes it (heapify plus the first 24 IDs, no
	// labeling).
	carProxy, err := ix.Propagate(score)
	if err != nil {
		return fmt.Errorf("propagating car scores: %w", err)
	}
	rep.Benchmarks["estimate_car_e05_w1"] = runBench(func(b *testing.B) {
		opts := aggregation.Options{ErrTarget: 0.05, Delta: 0.05, MinSamples: 100, Seed: 3}
		for i := 0; i < b.N; i++ {
			if _, err := aggregation.Estimate(opts, propDS.Len(), carProxy, aggregation.ScoreFunc(score), propLab); err != nil {
				b.Fatal(err)
			}
		}
	})
	hasCar := func(ann dataset.Annotation) bool { return score(ann) >= 1 }
	matchProxy, err := ix.Propagate(core.MatchScore(hasCar))
	if err != nil {
		return fmt.Errorf("propagating match scores: %w", err)
	}
	rep.Benchmarks["supg_draw_b1000_w1"] = runBench(func(b *testing.B) {
		opts := supg.Options{Budget: 1000, Target: 0.9, Delta: 0.05, Seed: 4, Parallelism: 1}
		for i := 0; i < b.N; i++ {
			if _, err := supg.RecallTarget(opts, propDS.Len(), matchProxy, hasCar, propLab); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The min-k row scan itself over the same corpus and representative
	// set: rebuild the table at workers=1, streaming the float64 rows
	// through the batch kernels.
	rep.Benchmarks["exact_scan_w1"] = runBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.BuildTablePar(ix.Embeddings, ix.Table.Reps, ix.Table.K, 1)
		}
	})
	rep.QuantBytesPerRecord = float64(ix.Quant.Bytes()) / float64(ix.Quant.Rows())

	// The scatter-gather overhead of sharded serving at the same worker
	// count: 4 shards over the same corpus, bitwise-identical output.
	sharded, err := shard.Split(ix, 4)
	if err != nil {
		return fmt.Errorf("sharding propagation index: %w", err)
	}
	sharded.SetParallelism(1)
	rep.Benchmarks["propagate_sharded4_w1"] = runBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sharded.Propagate(score); err != nil {
				b.Fatal(err)
			}
		}
	})
	nearScores, nearDists, err := sharded.Pin().PropagateNearest(score, nil)
	if err != nil {
		return fmt.Errorf("propagating nearest scores: %w", err)
	}
	rep.Benchmarks["limit_first24_w1"] = runBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := limitq.NewCursor(limitq.NewHeap(nearScores, nearDists, 0, len(nearScores)))
			for k := 0; k < 24; k++ {
				if _, ok := c.Next(); !ok {
					b.Fatal("scan order ended early")
				}
			}
		}
	})

	// What a served request pays for its proxy column, over the same sharded
	// corpus. A miss is the once-per-generation cost: one weighted column
	// with its SUPG design plus one nearest column with its limit heaps —
	// the propagation, sqrt-weight, prefix-sum, guide-table and heapify
	// passes every request ran before columns existed. The design's sorted
	// copy of the scores is not in it: the first select's count builds that,
	// once per column, and no row here counts a select. A fresh scorer name
	// per iteration keeps every fetch a miss (and exercises LRU eviction once
	// the 64 MiB budget fills). A hit is what every later request pays
	// instead: two store lookups and one small cursor allocation — the scan
	// prefix the column shares copies nothing per request.
	fetchColumns := func(b *testing.B, sc shard.Scorer) {
		w, _, err := sharded.Column(sc, shard.ColumnWeighted, nil)
		if err != nil {
			b.Fatal(err)
		}
		w.Design()
		nr, _, err := sharded.Column(sc, shard.ColumnNearest, nil)
		if err != nil {
			b.Fatal(err)
		}
		nr.Cursor(nil)
	}
	misses := 0
	rep.Benchmarks["column_miss_w1"] = runBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			misses++
			fetchColumns(b, shard.Scorer{Name: fmt.Sprintf("count/car#%d", misses), Score: score})
		}
	})
	rep.Benchmarks["column_hit_w1"] = runBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fetchColumns(b, shard.Scorer{Name: "count/car", Score: score})
		}
	})

	// The known-label path — the part of a request the paper calls free, and
	// at a 98.5 % hit rate the most-travelled one: 1000 draws of labels the
	// cross-query store already holds, through the chain tastiserve's request
	// labeler is built on (context binding over the store's bound labeler,
	// counting hits into a registry as the server's does), by one goroutine
	// and by two at once, each with its own binding like two requests. w2 over
	// w1 is what two overlapping requests cost each other on this path: equal
	// when a hit shares nothing but read-only memory.
	hitStore := store.New(store.Options{Telemetry: telemetry.NewRegistry()})
	known := make(map[int]dataset.Annotation, propDS.Len())
	for id, ann := range propDS.Truth {
		known[id] = ann
	}
	hitStore.Warm(known)
	for _, workers := range []int{1, 2} {
		rep.Benchmarks[fmt.Sprintf("label_hit_w%d", workers)] = runBench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						lab := labeler.WithContext(context.Background(), hitStore.Bind(propLab, nil, "", sharded.AnnotationOf))
						for d := 0; d < 1000; d++ {
							if _, err := lab.Label((g*9973 + d*7919) % propDS.Len()); err != nil {
								b.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
			}
		})
	}

	// What a cracking limit query adds to its request: one CrackAll of 32
	// records into the 4-shard, 20k-record index — one scan of the record
	// range for each new representative plus the copy-on-write that keeps the published
	// version intact for the requests reading it. Each iteration cracks a
	// fresh deep copy (cloned off the clock).
	crackBatch := make(map[int]dataset.Annotation, 32)
	for id := 97; len(crackBatch) < 32; id += 601 {
		if !sharded.Annotated(id) {
			crackBatch[id] = propDS.Truth[id]
		}
	}
	rep.Benchmarks["crack_batch_b32"] = runBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := sharded.Clone()
			b.StartTimer()
			c.CrackAll(crackBatch)
		}
	})

	// Triplet training as an index build runs it — the corpus, label budget
	// and network the repository benchmark's server builds with (taipei 20k,
	// 300 FPF-mined labels, the default 4000 steps into 64 dimensions) — at
	// one and two workers. Same weights either way; w1/w2 is what the second
	// core buys.
	trainDS, err := dataset.Generate("taipei", 20000, 1)
	if err != nil {
		return fmt.Errorf("generating training corpus: %w", err)
	}
	trainCfg := triplet.DefaultConfig(64, 1)
	pre := embed.AllPar(embed.NewPretrained(trainDS.FeatureDim(), trainCfg.EmbedDim, 1), trainDS, 0)
	trainIDs := triplet.MineFPF(xrand.Split(1, "mining"), pre, 300)
	trainAnns := make([]dataset.Annotation, len(trainIDs))
	for i, id := range trainIDs {
		trainAnns[i] = trainDS.Truth[id]
	}
	for _, workers := range []int{1, 2} {
		rep.Benchmarks[fmt.Sprintf("train_triplet_w%d", workers)] = runBench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := triplet.Train(trainCfg, trainDS, trainIDs, trainAnns, triplet.VideoBucketKey(0.5), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The streaming write path: one WAL frame per op, fsync included — this
	// is the floor under every /ingest ack.
	walDir, err := os.MkdirTemp("", "tasti-bench-wal-")
	if err != nil {
		return fmt.Errorf("creating bench WAL dir: %w", err)
	}
	defer os.RemoveAll(walDir) //nolint:errcheck // best-effort temp cleanup
	wal, err := ingest.OpenWAL(walDir, 0, ingest.WALOptions{})
	if err != nil {
		return fmt.Errorf("opening bench WAL: %w", err)
	}
	defer wal.Close() //nolint:errcheck // bench-only, temp dir removed anyway
	walFeats := make([][]float64, 16)
	walAnns := make([]dataset.Annotation, 16)
	for i := range walFeats {
		walFeats[i] = buildDS.Records[i].Features
		walAnns[i] = buildDS.Truth[i]
	}
	rep.Benchmarks["wal_append_fsync_b16"] = runBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := wal.Append(ingest.Batch{Base: wal.NextID(), Features: walFeats, Anns: walAnns}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// AppendRecords at workers=1 on the served one-shard index: embed + min-k
	// scan per appended record and the version publish, the apply-side cost
	// of streaming ingest. Each iteration appends to a fresh deep copy of the
	// same 6000-record index, so ns/op does not depend on b.N. Off the clock
	// the copy takes one batch first: a clone's rows fill their arrays
	// exactly, and that append pays the growth a stream's appends amortize.
	built, err := core.Build(core.PretrainedConfig(600, 2), buildDS, buildLab)
	if err != nil {
		return fmt.Errorf("building append index: %w", err)
	}
	appendIx, err := shard.Split(built, 1)
	if err != nil {
		return fmt.Errorf("serving append index: %w", err)
	}
	appendIx.SetParallelism(1)
	rep.Benchmarks["append_records_w1_b16"] = runBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := appendIx.Clone()
			if _, err := c.AppendRecords(walFeats); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := c.AppendRecords(walFeats); err != nil {
				b.Fatal(err)
			}
		}
	})

	return tasti.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
}

func runBench(fn func(b *testing.B)) BenchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return BenchResult{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
