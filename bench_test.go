package repro_test

// One benchmark per registered experiment: the paper's tables and figures
// (Section 6) and this reproduction's extensions. Each runs its experiment
// end to end at TinyScale, so `go test -bench=Experiments` regenerates every
// result series quickly and `-bench 'Experiments/<id>'` picks one; pass
// `-scale default` to cmd/tastibench for the full-size runs recorded in
// EXPERIMENTS.md. Use -benchtime=1x to run each experiment exactly once.

import (
	"io"
	"testing"

	"repro/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	sc := experiments.TinyScale()
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := experiments.Run(id, sc, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Rows) == 0 {
					b.Fatalf("%s produced no rows", id)
				}
			}
		})
	}
}
