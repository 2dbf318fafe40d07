package aggregation

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
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
