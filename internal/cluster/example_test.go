package cluster_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/vecmath"
)

// ExampleBuildTablePar builds the min-k distance table of Algorithm 1 over a
// toy 1-D corpus: FPF picks well-spread representatives, and every record
// retains its two nearest.
func ExampleBuildTablePar() {
	embeddings := vecmath.FromRows([][]float64{
		{0.0}, {0.1}, {0.2}, // a cluster near 0
		{1.0}, {1.1}, // a cluster near 1
		{5.0}, // an outlier
	})
	reps := cluster.FPFPar(embeddings, 3, 0, 0)
	table := cluster.BuildTablePar(embeddings, reps, 2, 0)

	fmt.Println("representatives:", reps)
	for i := 0; i < embeddings.Rows(); i++ {
		fmt.Printf("record %d -> nearest rep %d\n", i, table.Nearest(i).Rep)
	}
	// Output:
	// representatives: [0 5 4]
	// record 0 -> nearest rep 0
	// record 1 -> nearest rep 0
	// record 2 -> nearest rep 0
	// record 3 -> nearest rep 4
	// record 4 -> nearest rep 4
	// record 5 -> nearest rep 5
}
