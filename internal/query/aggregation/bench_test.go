package aggregation

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func benchEnv(b *testing.B) (*dataset.Dataset, labeler.Labeler, []float64) {
	b.Helper()
	ds, err := dataset.Generate("night-street", 4000, 1)
	if err != nil {
		b.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	truth := make([]float64, ds.Len())
	for i, ann := range ds.Truth {
		truth[i] = float64(ann.(dataset.VideoAnnotation).Count("car"))
	}
	return ds, lab, truth
}

func BenchmarkEstimateNoProxy(b *testing.B) {
	ds, lab, _ := benchEnv(b)
	opts := Options{ErrTarget: 0.1, Delta: 0.05, MinSamples: 100, Seed: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := Estimate(opts, ds.Len(), nil, carCount, lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateWithProxy(b *testing.B) {
	ds, lab, truth := benchEnv(b)
	opts := Options{ErrTarget: 0.1, Delta: 0.05, MinSamples: 100, Seed: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := Estimate(opts, ds.Len(), truth, carCount, lab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatePerSample pins the sample count (an unreachable error
// target under a MaxSamples cap) and reports the cost per sample drawn. With
// the stopping screen it is flat in the sample count; with an exact pass per
// draw it grew linearly (4x the samples, 4x the ns/sample).
func BenchmarkEstimatePerSample(b *testing.B) {
	ds, lab, truth := benchEnv(b)
	r := xrand.New(3)
	proxy := make([]float64, len(truth))
	for i, v := range truth {
		proxy[i] = v + 0.7*r.NormFloat64()
	}
	for _, samples := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			opts := Options{ErrTarget: 1e-9, Delta: 0.05, MinSamples: 100, MaxSamples: samples}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Seed = int64(i)
				res, err := Estimate(opts, ds.Len(), proxy, carCount, lab)
				if err != nil || res.LabelerCalls != int64(samples) {
					b.Fatalf("calls = %d, err = %v", res.LabelerCalls, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(samples), "ns/sample")
		})
	}
}

// servedValues is the shape of a served request's value source over a column
// whose every exact score is known: one atomic cell per record holding the
// score's bits XOR a reserved NaN pattern (0 = unknown), and a context check
// and a hit tally on each draw consumed.
type servedValues struct {
	cells []atomic.Uint64
	done  <-chan struct{}
	hits  int64
}

const unknownBits = 0x7ff8_7a57_1c01_0001

func (s *servedValues) Peek(ids []int, vals []float64, known []bool) {
	for i, id := range ids {
		stored := s.cells[id].Load()
		vals[i], known[i] = math.Float64frombits(stored^unknownBits), stored != 0
	}
}

func (s *servedValues) Value(id int, v float64, known bool) (float64, error) {
	if !known {
		return 0, fmt.Errorf("record %d has no known value", id)
	}
	select {
	case <-s.done:
		return 0, context.Canceled
	default:
	}
	s.hits++
	return v, nil
}

// evictL2 writes a buffer four times the 2 MiB per-core L2 of the reference
// host, so the next query starts with its column out of L2, as a served
// aggregate does after the requests between it and the last one.
func evictL2() {
	for i := range evictBuf {
		evictBuf[i]++
	}
}

var evictBuf = make([]uint64, 8<<20/8)

// BenchmarkEstimateValuesServed is a served aggregate's sampler: a 20 000-record
// corpus (taipei, car counts) whose every exact score the column knows, so no
// draw reaches a labeler, at err 0.05 with a noisy proxy. The cold case
// evicts L2 between queries, off the timer. ns/draw is the time per draw
// consumed; BenchmarkEstimatePerSample's 4 000 cache-resident records labeled
// through an oracle see none of this cost.
func BenchmarkEstimateValuesServed(b *testing.B) {
	ds, err := dataset.Generate("taipei", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(3)
	proxy := make([]float64, ds.Len())
	cells := make([]atomic.Uint64, ds.Len())
	for i, ann := range ds.Truth {
		v := carCount(ann)
		proxy[i] = v + 0.7*r.NormFloat64()
		cells[i].Store(math.Float64bits(v) ^ unknownBits)
	}
	proxyMean := stats.Mean(proxy)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			src := &servedValues{cells: cells, done: ctx.Done()}
			opts := Options{ErrTarget: 0.05, Delta: 0.05, MinSamples: 100}
			var draws int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					evictL2()
					b.StartTimer()
				}
				opts.Seed = int64(i % 8) // a server seeds from a few constants
				res, err := EstimateValues(opts, len(proxy), proxy, proxyMean, src)
				if err != nil {
					b.Fatal(err)
				}
				draws += res.LabelerCalls
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
		})
	}
}
