package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ann"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/vecmath"
	"repro/tasti"
)

// The fixed probes time the layers a query never calls — kernels, index
// construction, the write path, persistence — on the workload's own index,
// each through the function the server reaches it by. They run in every
// traced run so every per-layer metric exists on every workload; what
// differs between workloads is the corpus they run over.

// sink keeps the results of the host-ceiling loops alive.
var sink float64

// best returns the shortest of three runs of f: the ceilings are "how fast
// can this box go", so the least-disturbed run is the answer.
func best(f func()) time.Duration {
	d := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t := time.Now()
		f()
		d = min(d, time.Since(t))
	}
	return d
}

// hostCeilings measures what the box can do, so kernel rates read as
// achieved-versus-ceiling: one core reading 256 MiB (DRAM) and 256 KiB (L2)
// with vector loads — bytes.IndexByte for a byte that is not there is the
// runtime's AVX2 scan, a read-only pass with no arithmetic to bound it — and
// the repository's own dot kernel on rows that stay in L1.
func hostCeilings(m metrics, dim int) {
	big := make([]byte, 256<<20)
	for i := range big {
		big[i] = 1
	}
	d := best(func() { sink += float64(bytes.IndexByte(big, 2)) })
	m.set("host.stream_gbps", float64(len(big))/d.Seconds()/1e9, "GB/s")

	small := big[:256<<10]
	const passes = 8192
	d = best(func() {
		for i := 0; i < passes; i++ {
			sink += float64(bytes.IndexByte(small, 2))
		}
	})
	m.set("host.l2_gbps", float64(len(small)*passes)/d.Seconds()/1e9, "GB/s")

	rows := vecmath.NewMatrix(16, dim) // 16 KiB at dim 128
	q := make([]float64, dim)
	for i := range rows.Data() {
		rows.Data()[i] = float64(i%7) - 3
	}
	for i := range q {
		q[i] = float64(i%5) - 2
	}
	dst := make([]float64, rows.Rows())
	const calls = 200000
	d = best(func() {
		for i := 0; i < calls; i++ {
			vecmath.DotBatch(q, rows, dst)
		}
	})
	sink += dst[0]
	m.set("host.dot_gflops", float64(2*dim*rows.Rows()*calls)/d.Seconds()/1e9, "GFLOP/s")
}

func probes(m metrics, cfg runConfig, in *inputs, ix *tasti.ShardedIndex, tmp string) error {
	const par = 2 // the server's -parallelism
	n, k := ix.NumRecords(), ix.K()
	reps := append([]int(nil), ix.Shard(0).Table.Reps...)
	anns := map[int]tasti.Annotation{}
	emb := vecmath.NewMatrix(0, 0)
	for s := 0; s < ix.NumShards(); s++ {
		sh := ix.Shard(s)
		if s == 0 {
			emb = vecmath.NewMatrix(n, sh.Embeddings.Dim())
		}
		copy(emb.RowRange(sh.Lo, sh.Hi).Data(), sh.Embeddings.Data())
		maps.Copy(anns, sh.Annotations)
	}
	dim := emb.Dim()
	hostCeilings(m, dim)
	runtime.GC() // drop the ceilings' 256 MiB before anything else is timed

	// The scan kernel as the table build drives it: one record row against
	// the gathered representative matrix. 3 flops and 8 streamed bytes per
	// element pair, computed from counts, not measured.
	repMat := vecmath.GatherRows(emb, reps)
	sample := min(n, 4000)
	dst := make([]float64, len(reps))
	d := best(func() {
		for i := 0; i < sample; i++ {
			vecmath.SquaredL2Batch(emb.Row(i), repMat, dst)
		}
	})
	pairs := float64(sample * len(reps))
	m.set("vecmath.scan_gflops", pairs*float64(3*dim)/d.Seconds()/1e9, "GFLOP/s")
	m.set("vecmath.scan_gbps", pairs*float64(8*dim)/d.Seconds()/1e9, "GB/s")
	var sc cluster.Scanner
	var nb []cluster.Neighbor
	d = best(func() {
		for i := 0; i < sample; i++ {
			nb = sc.ScanInto(nb[:0], emb.Row(i), repMat, reps, k)
		}
	})
	m.set("cluster.scan_pairs_per_s", pairs/d.Seconds(), "1/s")

	t := time.Now()
	cluster.FPFPar(emb, len(reps), 0, par)
	m.set("cluster.fpf_ms", ms(time.Since(t)), "ms")
	t = time.Now()
	table := cluster.BuildTablePar(emb, reps, k, par)
	m.set("cluster.table_build_ms", ms(time.Since(t)), "ms")
	quant, err := vecmath.QuantizeMatrix(emb, vecmath.TrainQuantParams(emb))
	if err != nil {
		return err
	}
	t = time.Now()
	cluster.BuildTableQuantPar(emb, quant, reps, k, par)
	m.set("cluster.table_build_quant_ms", ms(time.Since(t)), "ms")
	acfg := ann.DefaultConfig(len(reps), corpusSeed)
	acfg.Parallelism = par
	t = time.Now()
	if _, err := ann.BuildTableApprox(emb, reps, k, 4, acfg); err != nil {
		return err
	}
	m.set("ann.table_build_ms", ms(time.Since(t)), "ms")

	// Cracking's kernel: one new representative against every record. The
	// first 20 records that are not representatives yet.
	var adds []float64
	for id := 0; id < n && len(adds) < 20; id++ {
		if ix.Annotated(id) {
			continue
		}
		t = time.Now()
		table.AddRepresentativePar(emb, id, par)
		adds = append(adds, us(time.Since(t)))
	}
	m["cluster.add_rep_us"] = metric{Value: stats.Quantile(adds, 0.5), Unit: "us", N: len(adds)}

	// Unsharded propagation over the same table, then the split. The table
	// is rebuilt so the 20 probe representatives above do not count.
	cix := &core.Index{Embeddings: emb, Table: cluster.BuildTablePar(emb, reps, k, par), Annotations: anns}
	cix.SetParallelism(par)
	score := tasti.CountScore("car")
	var prop []float64
	for i := 0; i < 50; i++ {
		t = time.Now()
		if _, err := cix.Propagate(score); err != nil {
			return err
		}
		prop = append(prop, us(time.Since(t)))
	}
	m["core.propagate_us"] = metric{Value: stats.Quantile(prop, 0.5), Unit: "us", N: len(prop)}
	t = time.Now()
	if _, err := shard.Split(cix, ix.NumShards()); err != nil {
		return err
	}
	m.set("shard.split_ms", ms(time.Since(t)), "ms")

	var saves []float64
	for i := 0; i < 3; i++ {
		t = time.Now()
		if err := tasti.WriteFileAtomic(filepath.Join(tmp, "probe.snap"), ix.Save); err != nil {
			return err
		}
		saves = append(saves, ms(time.Since(t)))
	}
	m["snapshot.save_ms"] = metric{Value: stats.Quantile(saves, 0.5), Unit: "ms", N: len(saves)}

	if err := writePathProbes(m, cfg, in, ix, filepath.Join(tmp, "probe-wal")); err != nil {
		return err
	}
	return samplerProbes(m, in, ix)
}

// writePathProbes times the ingest layers one at a time: the WAL append with
// its fsync, the ingester's submit-to-ack hop on top of it, replay of what
// was written into a clone of the index, and the append and crack mutations
// that run under the query lock.
func writePathProbes(m metrics, cfg runConfig, in *inputs, ix *tasti.ShardedIndex, dir string) error {
	per := cfg.sc.batchRecords
	batches := min(cfg.sc.probeBatches, len(in.bodies))
	base := ix.NumRecords()
	batch := func(b int) ingest.Batch {
		out := ingest.Batch{Base: base + b*per}
		for i := b * per; i < (b+1)*per; i++ {
			out.Features = append(out.Features, in.ingest.Records[i].Features)
			out.Anns = append(out.Anns, in.ingest.Truth[i])
		}
		return out
	}

	wal, err := ingest.OpenWAL(dir, base, ingest.WALOptions{})
	if err != nil {
		return err
	}
	var appends []float64
	for b := 0; b < batches/2; b++ {
		t := time.Now()
		if err := wal.Append(batch(b)); err != nil {
			return err
		}
		appends = append(appends, us(time.Since(t)))
	}
	m["ingest.wal_append_fsync_us"] = metric{Value: stats.Quantile(appends, 0.5), Unit: "us", N: len(appends)}

	// The second half goes through the ingester: queue, writer loop, the same
	// append, ack. Apply is a no-op so only the ack path is timed.
	ing, err := ingest.New(ingest.Config{WAL: wal, Apply: func(ingest.Batch) error { return nil }})
	if err != nil {
		return err
	}
	ing.Start()
	var submits []float64
	for b := batches / 2; b < batches; b++ {
		bt := batch(b)
		t := time.Now()
		if _, err := ing.Submit(context.Background(), bt.Features, bt.Anns); err != nil {
			return err
		}
		submits = append(submits, us(time.Since(t)))
	}
	if err := ing.Close(); err != nil { // also closes the WAL
		return err
	}
	m["ingest.submit_ack_us"] = metric{Value: stats.Quantile(submits, 0.5), Unit: "us", N: len(submits)}
	var walBytes int64
	segs, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range segs {
		if fi, err := e.Info(); err == nil {
			walBytes += fi.Size()
		}
	}
	m.set("ingest.wal_bytes_per_record", float64(walBytes)/float64(batches*per), "B")

	// Replay what was just written into a clone, as a restart does.
	clone := ix.Clone()
	clone.SetParallelism(2)
	runtime.GC()
	t := time.Now()
	st, err := ingest.Replay(dir, base, func(b ingest.Batch) error {
		_, aerr := clone.AppendRecords(b.Features)
		return aerr
	})
	if err != nil {
		return err
	}
	if st.Records != batches*per {
		return fmt.Errorf("WAL probe replayed %d of %d records", st.Records, batches*per)
	}
	m.set("ingest.replay_ms", ms(time.Since(t)), "ms")

	// The two mutations that hold the query lock in the server: one batch
	// appended, one record cracked.
	clone = ix.Clone()
	clone.SetParallelism(2)
	runtime.GC()
	var perRecord, cracks []float64
	for b := 0; b < batches; b++ {
		bt := batch(b)
		t = time.Now()
		if _, err := clone.AppendRecords(bt.Features); err != nil {
			return err
		}
		perRecord = append(perRecord, us(time.Since(t))/float64(per))
	}
	m["shard.append_us_per_record"] = metric{Value: stats.Quantile(perRecord, 0.5), Unit: "us", N: len(perRecord)}
	for id := 0; len(cracks) < 20 && id < base; id++ {
		if clone.Annotated(id) {
			continue
		}
		t = time.Now()
		clone.Crack(id, in.corpus.Truth[id])
		cracks = append(cracks, us(time.Since(t)))
	}
	m["shard.crack_us_per_rep"] = metric{Value: stats.Quantile(cracks, 0.5), Unit: "us", N: len(cracks)}
	return nil
}

// samplerProbes prices the two samplers per labelled sample at fixed sample
// counts, whatever the workload's own mix is. MaxSamples pins the estimator
// to exactly 1000 and 4000 draws (the error target is unreachable); a cost
// per sample that grows between the two is the estimator recomputing its
// variance over all samples on every draw. Labels come from a warm store and
// their time is subtracted.
func samplerProbes(m metrics, in *inputs, ix *tasti.ShardedIndex) error {
	rp := newReplayer(ix, in.corpus)
	score := tasti.CountScore("car")
	scores, err := ix.Propagate(score)
	if err != nil {
		return err
	}
	estimate := func(samples int) (float64, error) {
		var self time.Duration
		for pass := 0; pass < 2; pass++ { // the first pass warms the store
			lab := rp.labeler()
			t := time.Now()
			res, err := tasti.EstimateAggregate(tasti.AggregateOptions{
				ErrTarget: 1e-9, Delta: 0.05, MinSamples: 100, MaxSamples: samples, Seed: corpusSeed + 1,
			}, in.corpus.Len(), scores, score, lab)
			if err != nil {
				return 0, err
			}
			if res.LabelerCalls != int64(samples) {
				return 0, fmt.Errorf("estimator probe drew %d samples, want %d", res.LabelerCalls, samples)
			}
			self = time.Since(t) - lab.hitTime - lab.missTime
		}
		return float64(self.Nanoseconds()) / float64(samples), nil
	}
	small, err := estimate(min(1000, in.corpus.Len()))
	if err != nil {
		return err
	}
	large, err := estimate(min(4000, in.corpus.Len()))
	if err != nil {
		return err
	}
	m.set("aggregation.ns_per_sample_small", small, "ns")
	m.set("aggregation.ns_per_sample_large", large, "ns")

	pred := func(ann tasti.Annotation) bool { return ann.(tasti.VideoAnnotation).Count("car") >= 1 }
	match, err := ix.Propagate(tasti.MatchScore(pred))
	if err != nil {
		return err
	}
	budget := min(1000, in.corpus.Len()/2)
	var self time.Duration
	for pass := 0; pass < 2; pass++ {
		lab := rp.labeler()
		t := time.Now()
		if _, err := tasti.SelectWithRecall(tasti.SelectOptions{
			Budget: budget, Target: 0.9, Delta: 0.05, Seed: corpusSeed + 2, Parallelism: 2,
		}, in.corpus.Len(), match, pred, lab); err != nil {
			return err
		}
		self = time.Since(t) - lab.hitTime - lab.missTime
	}
	m.set("supg.ns_per_sample", float64(self.Nanoseconds())/float64(budget), "ns")
	return nil
}

// perLayerNames is the print order of the per-layer metrics; BENCHMARK.json
// lists the same names.
var perLayerNames = []string{
	"core.build_ms", "core.build.embed_ms", "core.build.train_ms",
	"core.build.cluster_select_ms", "core.build.rep_label_ms", "core.build.table_ms",
	"dataset.generate_ms", "shard.split_ms", "snapshot.save_ms",
	"vecmath.scan_gflops", "vecmath.scan_gbps", "host.dot_gflops", "host.l2_gbps", "host.stream_gbps",
	"cluster.fpf_ms", "cluster.table_build_ms", "cluster.table_build_quant_ms", "ann.table_build_ms",
	"cluster.scan_pairs_per_s", "cluster.add_rep_us",
	"core.propagate_us", "shard.propagate_us", "shard.propagate_nearest_us",
	"shard.limit_order_us", "limitq.scan_us", "limitq.labels_per_found",
	"aggregation.estimate_self_us", "aggregation.ns_per_sample_small", "aggregation.ns_per_sample_large",
	"supg.select_self_us", "supg.ns_per_sample",
	"labelstore.hit_ns", "labelstore.miss_ns", "labeler.oracle_ns", "labelstore.hit_rate", "labelstore.entries",
	"ingest.wal_append_fsync_us", "ingest.submit_ack_us", "ingest.wal_bytes_per_record",
	"shard.append_us_per_record", "shard.crack_us_per_rep",
	"ingest.replay_ms", "snapshot.load_ms", "snapshot.bytes_per_record",
	"tastiserve.restart_ms", "tastiserve.refresh_ms",
	"tastiserve.healthz_us",
	"tastiserve.span.propagate_us", "tastiserve.span.estimate_us", "tastiserve.span.sample_us",
	"tastiserve.span.order_us", "tastiserve.span.scan_us",
	"tastiserve.unattributed_us", "tastiserve.client_minus_handler_us",
	"tastiserve.cpu_s_per_request", "tastiserve.cpu_util", "telemetry.trace_overhead_pct",
	"client.select_iqm_ms", "client.select_p90_ms", "client.limit_p90_ms", "client.ingest_ack_p50_ms", "client.ingest_ack_p90_ms",
	"json.decode_us", "json.encode_us",
}
