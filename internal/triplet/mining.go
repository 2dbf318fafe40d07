package triplet

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// MineFPF selects n training records by running furthest-point-first over
// pre-trained embeddings, the paper's "FPF mining". Diverse training points
// cover rare events that uniform sampling would miss.
func MineFPF(r *rand.Rand, pretrained vecmath.Matrix, n int) []int {
	return MineFPFPar(r, pretrained, n, 0)
}

// MineFPFPar is MineFPF with an explicit parallelism level p (p <= 0 uses
// all CPUs); the mined set is identical at every p.
func MineFPFPar(r *rand.Rand, pretrained vecmath.Matrix, n, p int) []int {
	if pretrained.Rows() == 0 || n <= 0 {
		return nil
	}
	return cluster.FPFPar(pretrained, n, r.Intn(pretrained.Rows()), p)
}

// MineRandom selects n training records uniformly without replacement, the
// baseline the lesion study compares FPF mining against.
func MineRandom(r *rand.Rand, total, n int) []int {
	if n > total {
		n = total
	}
	return xrand.SampleWithoutReplacement(r, total, n)
}

// Triplet is one (anchor, positive, negative) training example, holding
// record IDs.
type Triplet struct {
	Anchor, Positive, Negative int
}

// Buckets groups the labeled training records by bucket key. Keys iterate in
// deterministic (sorted) order via SortedKeys.
type Buckets struct {
	byKey map[string][]int
	keyOf map[int]string
	keys  []string
	// anchorKeys are the keys, in sorted order, of the buckets an anchor can
	// come from (at least two members, so a positive exists).
	anchorKeys []string
}

// BucketRecords groups record IDs by the bucket key of their annotation.
// anns[i] must hold the annotation for ids[i].
func BucketRecords(ids []int, anns []dataset.Annotation, key BucketKey) *Buckets {
	if len(ids) != len(anns) {
		panic(fmt.Sprintf("triplet: %d ids but %d annotations", len(ids), len(anns)))
	}
	b := &Buckets{byKey: make(map[string][]int), keyOf: make(map[int]string, len(ids))}
	for i, id := range ids {
		k := key(anns[i])
		if _, ok := b.byKey[k]; !ok {
			b.keys = append(b.keys, k)
		}
		b.byKey[k] = append(b.byKey[k], id)
		b.keyOf[id] = k
	}
	sort.Strings(b.keys)
	for _, k := range b.keys {
		if len(b.byKey[k]) >= 2 {
			b.anchorKeys = append(b.anchorKeys, k)
		}
	}
	return b
}

// Key returns the bucket key of a training record ID (empty for unknown
// IDs).
func (b *Buckets) Key(id int) string { return b.keyOf[id] }

// NumBuckets returns the number of distinct buckets.
func (b *Buckets) NumBuckets() int { return len(b.keys) }

// SortedKeys returns the bucket keys in sorted order.
func (b *Buckets) SortedKeys() []string { return b.keys }

// Members returns the record IDs in a bucket.
func (b *Buckets) Members(key string) []int { return b.byKey[key] }

// SampleTriplet draws one triplet: an anchor and positive from one bucket
// with at least two members and a negative from a different bucket. It
// returns false when the bucketing cannot produce a triplet (fewer than two
// buckets, or no bucket with two members).
func (b *Buckets) SampleTriplet(r *rand.Rand) (Triplet, bool) {
	if len(b.keys) < 2 {
		return Triplet{}, false
	}
	if len(b.anchorKeys) == 0 {
		return Triplet{}, false
	}
	ak := b.anchorKeys[r.Intn(len(b.anchorKeys))]
	var nk string
	for {
		nk = b.keys[r.Intn(len(b.keys))]
		if nk != ak {
			break
		}
	}
	members := b.byKey[ak]
	ai := r.Intn(len(members))
	pi := r.Intn(len(members) - 1)
	if pi >= ai {
		pi++
	}
	negMembers := b.byKey[nk]
	return Triplet{
		Anchor:   members[ai],
		Positive: members[pi],
		Negative: negMembers[r.Intn(len(negMembers))],
	}, true
}
