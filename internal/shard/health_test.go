package shard

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// TestRadiusQuantilesNearestRank: quantile q of n radii is the ⌈q·n⌉-th
// smallest, and a whole product stays at its rank: 0.9·10 is rank 9, and
// 0.07·100, whose float product is a hair above 7, is rank 7. Each corpus
// below lists its radii out of order, and the radius of rank r is r itself,
// so the wanted quantile is the wanted rank.
func TestRadiusQuantilesNearestRank(t *testing.T) {
	qs := []float64{0.07, 0.44, 0.5, 0.9, 0.99}
	permuted := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i*7919%n + 1) // 7919 is prime to n: a permutation of 1..n
		}
		return out
	}
	cases := []struct {
		radii []float64
		ranks []float64 // per q
	}{
		// q·n = 0.49, 3.08, 3.5, 6.3, 6.93.
		{[]float64{5, 2, 7, 1, 4, 6, 3}, []float64{1, 4, 4, 7, 7}},
		// 0.7, 4.4, 5, 9, 9.9.
		{[]float64{10, 3, 8, 1, 6, 9, 2, 7, 5, 4}, []float64{1, 5, 5, 9, 10}},
		// 7, 44, 50, 90, 99.
		{permuted(100), []float64{7, 44, 50, 90, 99}},
		// 1400.07, 8800.44, 10000.5, 18000.9, 19800.99.
		{permuted(20001), []float64{1401, 8801, 10001, 18001, 19801}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n=%d", len(c.radii)), func(t *testing.T) {
			rows := make([][]cluster.Neighbor, len(c.radii))
			for i, r := range c.radii {
				rows[i] = []cluster.Neighbor{{Dist: r}}
			}
			v := &Version{table: &cluster.Table{K: 1, Neighbors: rows}}
			got := v.RadiusQuantiles(qs)
			for i, q := range qs {
				if got[i] != c.ranks[i] {
					t.Errorf("q=%v: radius %v, want the rank-%v radius", q, got[i], c.ranks[i])
				}
			}
		})
	}
}
