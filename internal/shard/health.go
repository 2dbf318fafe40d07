package shard

import (
	"math"
	"sort"
)

// Health introspection: cheap shape statistics the index-health monitor
// publishes as gauges and /admin/status reports. All of these are reads of
// one pinned Version, lock-free like every other read; none of them feed back
// into query execution.

// MemoryStats describes the resident scan-plane memory:
// the float64 embedding matrix the table scans and reranks read, and the
// uint8 code plane the crack sweeps stream.
type MemoryStats struct {
	// FloatBytes is the resident float64 embedding plane, 8 bytes/element.
	FloatBytes int64
	// QuantBytes is the resident uint8 code plane, 1 byte/element.
	QuantBytes int64
}

// MemoryStats reports the version's scan-plane bytes.
func (v *Version) MemoryStats() MemoryStats {
	return MemoryStats{FloatBytes: 8 * int64(len(v.emb.Data())), QuantBytes: v.quant.Bytes()}
}

// RadiusQuantiles returns the requested quantiles (each in [0,1]) of the
// min-k table's nearest-representative distances across every record — the
// "radius" each record's proxy score travels. Rising radii mean the
// representative set is thinning relative to the corpus (drift, or ingest
// outpacing cracking) and propagated scores are extrapolating further.
// Quantiles use the nearest-rank method on the sorted distances.
func (v *Version) RadiusQuantiles(qs []float64) []float64 {
	dists := make([]float64, len(v.table.Neighbors))
	for i, row := range v.table.Neighbors {
		dists[i] = row[0].Dist
	}
	out := make([]float64, len(qs))
	if len(dists) == 0 {
		return out
	}
	sort.Float64s(dists)
	for i, q := range qs {
		out[i] = dists[nearestRank(q, len(dists))-1]
	}
	return out
}

// nearestRank is the nearest-rank method's 1-based rank of quantile q among n
// sorted values, ⌈q·n⌉ clamped to [1, n]. A product within rounding of a whole
// number counts as that number: 0.07·100 is rank 7, although its float
// product lands a hair above 7.
func nearestRank(q float64, n int) int {
	p := q * float64(n)
	rank := math.Ceil(p)
	if r := math.Round(p); math.Abs(p-r) <= 1e-9*math.Max(1, p) {
		rank = r
	}
	return int(min(max(rank, 1), float64(n)))
}
