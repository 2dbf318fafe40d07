package supg

import "testing"

func BenchmarkRecallTarget(b *testing.B) {
	ds, lab, pred, truth := selectionEnv(b, 4000)
	scores := goodProxy(truth, 0.15, 2)
	opts := Options{Budget: 300, Target: 0.9, Delta: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := RecallTarget(opts, ds.Len(), scores, pred, lab); err != nil {
			b.Fatal(err)
		}
	}
}
