package shard_test

import (
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/query/supg"
	"repro/internal/shard"
)

// BenchmarkColumnAfterWrite times what the first requests after a write pay
// for their proxy columns, on a two-shard TASTI-PT index over taipei at 20k
// records / 800 representatives and 60k / 1200. Each op is one write — a
// 16-record append, or a one-representative crack — then the first weighted
// fetch of a count column with its SUPG design and a select's Len, then the
// first nearest fetch with a cursor's first ID. The phases are reported
// apart: write_us, weighted_us, nearest_us.
//
//	go test -run '^$' -bench BenchmarkColumnAfterWrite -benchtime 40x ./internal/shard
func BenchmarkColumnAfterWrite(b *testing.B) {
	sc := columnScorers()[0]
	opts := supg.Options{Budget: 200, Target: 0.9, Delta: 0.05, Seed: 1}
	fetch := func(b *testing.B, v *shard.Version) (weighted, nearest time.Duration) {
		start := time.Now()
		col, _, err := v.Column(sc, shard.ColumnWeighted)
		if err != nil {
			b.Fatal(err)
		}
		match := supg.MatchFunc(func(id int) (bool, error) { return col.Scores[id] >= 1, nil })
		if sel, err := col.Design().RecallTargetSelection(opts, match); err != nil || sel.Len() == 0 {
			b.Fatalf("select over the column: %v", err)
		}
		mid := time.Now()
		col, _, err = v.Column(sc, shard.ColumnNearest)
		if err != nil {
			b.Fatal(err)
		}
		cur, _ := col.Cursor()
		if _, ok := cur.Next(); !ok {
			b.Fatal("empty scan order")
		}
		return mid.Sub(start), time.Since(mid)
	}
	for _, size := range []struct {
		name    string
		n, reps int
	}{{"20k", 20000, 800}, {"60k", 60000, 1200}} {
		src, err := dataset.Generate("taipei", size.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		extra, err := dataset.Generate("taipei", 16*64, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, write := range []string{"append", "crack"} {
			b.Run(size.name+"/"+write, func(b *testing.B) {
				x := splitPT(b, "taipei", size.n, size.reps)
				fetch(b, x.Pin())
				next := 0 // the next record a crack promotes
				var writing, weighted, nearest time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := time.Now()
					if write == "append" {
						batch := make([][]float64, 16)
						for j := range batch {
							batch[j] = extra.Records[(16*i+j)%len(extra.Records)].Features
						}
						if _, err := x.AppendRecords(batch); err != nil {
							b.Fatal(err)
						}
					} else {
						for x.Annotated(next) {
							next++
						}
						x.Crack(next, src.Truth[next])
					}
					writing += time.Since(start)
					w, n := fetch(b, x.Pin())
					weighted, nearest = weighted+w, nearest+n
				}
				per := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(b.N) }
				b.ReportMetric(per(writing), "write_us")
				b.ReportMetric(per(weighted), "weighted_us")
				b.ReportMetric(per(nearest), "nearest_us")
			})
		}
	}
}
