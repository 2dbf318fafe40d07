package supg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/xrand"
)

// referenceCategorical is xrand.Categorical as it stood when drawSample
// called it once per draw: two linear passes over the corpus weights.
func referenceCategorical(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: categorical distribution has no mass")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// referenceDrawSample is drawSample as it stood before the CDF: an O(n)
// categorical draw per labeled record. Kept verbatim as the reference.
func referenceDrawSample(opts Options, n int, proxy []float64, pred Predicate, lab labeler.Labeler) (*sample, error) {
	weights := make([]float64, n)
	total := 0.0
	for i, p := range proxy {
		if p < 0 {
			p = 0
		}
		weights[i] = math.Sqrt(p) + 0.05
		total += weights[i]
	}

	r := xrand.New(opts.Seed)
	budget := opts.Budget
	if budget > n {
		budget = n
	}
	s := &sample{
		ids:     make([]int, 0, budget),
		labels:  make([]bool, 0, budget),
		weights: make([]float64, 0, budget),
	}
	qs := make([]float64, 0, budget)
	for len(s.ids) < budget {
		id := referenceCategorical(r, weights)
		ann, err := lab.Label(id)
		if err != nil {
			if errors.Is(err, labeler.ErrBudgetExhausted) && len(s.ids) > 0 {
				s.degraded = true
				break
			}
			return nil, fmt.Errorf("supg: labeling record %d: %w", id, err)
		}
		s.ids = append(s.ids, id)
		s.labels = append(s.labels, pred(ann))
		qs = append(qs, weights[id]/total)
	}
	actual := len(s.ids)
	for _, q := range qs {
		s.weights = append(s.weights, 1/(float64(actual)*q))
	}
	meanW := 0.0
	for _, w := range s.weights {
		meanW += w
	}
	meanW /= float64(len(s.weights))
	clip := 8 * meanW
	for i, w := range s.weights {
		if w > clip {
			s.weights[i] = clip
		}
	}
	return s, nil
}

// TestDrawSampleMatchesReference requires the CDF-search draw to produce the
// same record IDs, labels and importance weights as the per-draw linear scan
// — with zero and negative proxy scores in the corpus, a budget larger than
// the corpus, and a label budget that runs out mid-draw.
func TestDrawSampleMatchesReference(t *testing.T) {
	ds, _, pred, truth := selectionEnv(t, 2500)
	good := goodProxy(truth, 0.15, 2)
	signed := make([]float64, len(good)) // zeros, negatives and positives mixed
	for i, v := range good {
		switch i % 4 {
		case 0:
			signed[i] = 0
		case 1:
			signed[i] = -v
		default:
			signed[i] = v
		}
	}
	proxies := map[string][]float64{"good": good, "signed": signed, "zero": make([]float64, len(good))}
	type variant struct {
		name        string
		budget      int
		labelBudget int64 // 0 = unlimited
	}
	variants := []variant{
		{"plain", 300, 0},
		{"budget>n", 4000, 0},
		{"exhausted", 300, 120},
	}
	for name, proxy := range proxies {
		for _, v := range variants {
			for seed := int64(1); seed <= 5; seed++ {
				newLab := func() labeler.Labeler {
					var lab labeler.Labeler = labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
					if v.labelBudget > 0 {
						lab = labeler.NewBudgeted(lab, v.labelBudget)
					}
					return lab
				}
				opts := Options{Budget: v.budget, Target: 0.9, Delta: 0.05, Seed: seed}
				want, err := referenceDrawSample(opts, ds.Len(), proxy, pred, newLab())
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewDesign(proxy).drawSample(opts, pred, newLab())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s seed=%d: sample differs from the reference (ids equal: %v, weights equal: %v, degraded %v/%v)",
						name, v.name, seed, reflect.DeepEqual(got.ids, want.ids), reflect.DeepEqual(got.weights, want.weights), got.degraded, want.degraded)
				}
				if wantDegraded := v.labelBudget > 0; got.degraded != wantDegraded {
					t.Fatalf("%s %s seed=%d: degraded = %v", name, v.name, seed, got.degraded)
				}
				if v.name == "budget>n" && len(got.ids) != ds.Len() {
					t.Fatalf("%s: %d draws, want the corpus size %d", v.name, len(got.ids), ds.Len())
				}
			}
		}
	}
}

// BenchmarkDrawSample reports the marginal cost of one more draw at two
// corpus sizes: the time difference between a large and a small budget over
// the difference in draws, which cancels the one-off O(n) weight and
// prefix-sum passes. It must not scale with n the way a per-draw linear scan
// does (ns/op is the large-budget run, O(n) passes included).
func BenchmarkDrawSample(b *testing.B) {
	const small, large = 500, 2500
	for _, n := range []int{20000, 60000} {
		ds, err := dataset.Generate("night-street", n, 1)
		if err != nil {
			b.Fatal(err)
		}
		lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
		pred := func(ann dataset.Annotation) bool { return ann.(dataset.VideoAnnotation).Count("car") >= 1 }
		truth := make([]bool, n)
		for i, ann := range ds.Truth {
			truth[i] = pred(ann)
		}
		proxy := goodProxy(truth, 0.15, 2)
		run := func(b *testing.B, budget int, seed int64) {
			opts := Options{Budget: budget, Target: 0.9, Delta: 0.05, Seed: seed}
			if _, err := NewDesign(proxy).drawSample(opts, pred, lab); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var smallTime time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				start := time.Now()
				run(b, small, int64(i))
				smallTime += time.Since(start)
				b.StartTimer()
				run(b, large, int64(i))
			}
			b.ReportMetric(float64(b.Elapsed()-smallTime)/float64(b.N)/(large-small), "ns/draw")
		})
	}
}
