package aggregation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// referenceEstimate is the sampler as it stood before the stopping screen:
// variance, covariance and every residual recomputed over all samples on
// every draw. Kept verbatim as the reference Estimate must equal bit for bit.
func referenceEstimate(opts Options, n int, proxy []float64, score ScoreFunc, lab labeler.Labeler) (Result, error) {
	maxSamples := opts.MaxSamples
	if maxSamples <= 0 || maxSamples > n {
		maxSamples = n
	}
	minSamples := opts.MinSamples
	if minSamples < 2 {
		minSamples = 2
	}
	if minSamples > maxSamples {
		minSamples = maxSamples
	}
	proxyMean := 0.0
	if proxy != nil {
		proxyMean = stats.Mean(proxy)
	}

	r := xrand.New(opts.Seed)
	var (
		fs, ps []float64
		calls  int64
	)
	sample := func() error {
		id := r.Intn(n)
		ann, err := lab.Label(id)
		if err != nil {
			return fmt.Errorf("aggregation: labeling record %d: %w", id, err)
		}
		calls++
		fs = append(fs, score(ann))
		if proxy != nil {
			ps = append(ps, proxy[id])
		}
		return nil
	}

	degraded := false
	for len(fs) < minSamples {
		if err := sample(); err != nil {
			if errors.Is(err, labeler.ErrBudgetExhausted) && len(fs) >= 2 {
				degraded = true
				break
			}
			return Result{}, err
		}
	}

	var res Result
	for {
		c := 0.0
		if proxy != nil {
			if v := stats.Variance(ps); v > 0 {
				c = stats.Covariance(fs, ps) / v
			}
		}
		var w stats.Welford
		for i, f := range fs {
			y := f
			if proxy != nil {
				y -= c * (ps[i] - proxyMean)
			}
			w.Add(y)
		}
		half := stats.EmpiricalBernsteinRadius(w.StdDev(), w.Range(), w.N(), opts.Delta)
		if degraded || half <= opts.ErrTarget || len(fs) >= maxSamples {
			res = Result{
				Estimate:            w.Mean(),
				LabelerCalls:        calls,
				HalfWidth:           half,
				ControlVariateCoeff: c,
				Degraded:            degraded,
			}
			break
		}
		if err := sample(); err != nil {
			if errors.Is(err, labeler.ErrBudgetExhausted) && len(fs) >= 2 {
				degraded = true
				continue
			}
			return Result{}, err
		}
	}
	return res, nil
}

// drawLog records the record IDs a run asks its labeler for, in order.
type drawLog struct {
	labeler.Labeler
	ids []int
}

func (d *drawLog) Label(id int) (dataset.Annotation, error) {
	d.ids = append(d.ids, id)
	return d.Labeler.Label(id)
}

// sameBits reports whether two results are equal field by field, floats by
// their bits.
func sameBits(a, b Result) bool {
	return math.Float64bits(a.Estimate) == math.Float64bits(b.Estimate) &&
		math.Float64bits(a.HalfWidth) == math.Float64bits(b.HalfWidth) &&
		math.Float64bits(a.ControlVariateCoeff) == math.Float64bits(b.ControlVariateCoeff) &&
		a.LabelerCalls == b.LabelerCalls && a.Degraded == b.Degraded
}

// tabled is the value source of a caller that knows every record's value
// without its annotation, and reports the values of the records known accepts
// ahead of their draws — the way a served request peeks at an exact-score
// column. Every draw, known or not, is charged to lab, which is the only
// effect a draw has; a peeked draw answers with what Peek found.
type tabled struct {
	table []float64
	known func(id int) bool
	lab   labeler.Labeler
}

func (s tabled) Peek(ids []int, vals []float64, known []bool) {
	for i, id := range ids {
		// An unknown draw gets a NaN, which a sampler that used it would
		// carry into its result.
		vals[i], known[i] = math.NaN(), s.known(id)
		if known[i] {
			vals[i] = s.table[id]
		}
	}
}

func (s tabled) Value(id int, v float64, known bool) (float64, error) {
	if _, err := s.lab.Label(id); err != nil {
		return 0, err
	}
	if known {
		return v, nil
	}
	return s.table[id], nil
}

// knowsNone and knowsHalf say which records a tabled source peeks.
func knowsNone(int) bool    { return false }
func knowsHalf(id int) bool { return id%2 == 0 }

// failAt is a labeler whose call number at fails with context.Canceled, the
// way a request canceled mid-query fails its next draw.
type failAt struct {
	labeler.Labeler
	at, calls int64
}

func (f *failAt) Label(id int) (dataset.Annotation, error) {
	if f.calls++; f.calls == f.at {
		return nil, context.Canceled
	}
	return f.Labeler.Label(id)
}

// estimateBoth runs one query through every entry of the sampler — Estimate
// over (score, labeler), and EstimateValues over a table of the records'
// values computed up front, which touches its labeler only to be charged the
// draw, the way a served request reads an exact-score column, peeking at no
// record's value and at half of them, with the proxy mean folded once beside
// the vector the way a column keeps it — each on its own newLab(). It fails
// the test unless they agree on the Result bit for bit, on failing at all,
// and on the sequence of records drawn; it returns the one answer.
func estimateBoth(t *testing.T, ds *dataset.Dataset, opts Options, proxy []float64, score ScoreFunc, newLab func() labeler.Labeler) (Result, error) {
	t.Helper()
	viaAnn := &drawLog{Labeler: newLab()}
	want, wantErr := Estimate(opts, ds.Len(), proxy, score, viaAnn)

	table := make([]float64, ds.Len())
	for id, ann := range ds.Truth {
		table[id] = score(ann)
	}
	proxyMean := 0.0
	if proxy != nil {
		proxyMean = stats.Mean(proxy)
	}
	for _, known := range []func(int) bool{knowsNone, knowsHalf} {
		viaValues := &drawLog{Labeler: newLab()}
		got, gotErr := EstimateValues(opts, ds.Len(), proxy, proxyMean, tabled{table, known, viaValues})
		if (wantErr == nil) != (gotErr == nil) || errors.Is(wantErr, labeler.ErrBudgetExhausted) != errors.Is(gotErr, labeler.ErrBudgetExhausted) {
			t.Fatalf("value source failed with %v, annotation entry with %v", gotErr, wantErr)
		}
		if !sameBits(got, want) {
			t.Fatalf("value source and annotation entry disagree:\n got %+v\nwant %+v", got, want)
		}
		if !reflect.DeepEqual(viaValues.ids, viaAnn.ids) {
			t.Fatalf("value source drew %d records, annotation entry %d, or in another order", len(viaValues.ids), len(viaAnn.ids))
		}
	}
	return want, wantErr
}

// referenceProxies returns the proxy vectors the equivalence matrix runs
// over: none, a realistic noisy one, the truth itself (ρ² = 1, the screen's
// cancellation fallback), a constant (zero proxy variance), one
// anticorrelated with a large offset, and one whose scores are mostly zero.
func referenceProxies(truth []float64) map[string][]float64 {
	r := xrand.New(77)
	n := len(truth)
	noisy, offset, sparse := make([]float64, n), make([]float64, n), make([]float64, n)
	constant := make([]float64, n)
	for i, v := range truth {
		noisy[i] = v + 0.7*r.NormFloat64()
		offset[i] = 1e6 - 3*v + r.NormFloat64()
		if i%9 == 0 {
			sparse[i] = v
		}
		constant[i] = 0.1
	}
	return map[string][]float64{
		"nil": nil, "noisy": noisy, "truth": truth, "constant": constant,
		"offset": offset, "sparse": sparse,
	}
}

// TestEstimateMatchesReference requires the sampler's Result, through every
// entry, to equal the every-draw reference bit for bit — same stopping draw,
// same estimate, same half-width, same coefficient — across seeds, error
// targets, proxies, a MaxSamples cap that binds, a labeler whose budget runs
// out during the warm-up and during the adaptive loop (the degraded paths),
// and one that fails a draw the way a canceled request does. The capped stop,
// the exhausting draw and the failing draw each also fall on either side of a
// block boundary and on one — those twelve variants at one proxy, error
// target and seed, since where a block boundary falls depends on the draw
// count alone.
func TestEstimateMatchesReference(t *testing.T) {
	ds, _, truth := testEnv(t, 3000)
	// Scores with a large common offset exercise the conditioning of the
	// screen's running moments.
	bigScore := func(ann dataset.Annotation) float64 { return 1e7 + carCount(ann) }
	type variant struct {
		name       string
		maxSamples int
		budget     int64 // 0 = unlimited
		failAt     int64 // 0 = never
	}
	variants := []variant{
		{"plain", 0, 0, 0},
		{"capped", 400, 0, 0},
		{"exhaust-warmup", 0, 37, 0},
		{"exhaust-loop", 0, 180, 0},
		{"canceled", 0, 0, 150},
	}
	var boundary []variant
	for _, k := range []int{xrand.Block - 1, xrand.Block, xrand.Block + 1, 2 * xrand.Block} {
		boundary = append(boundary,
			variant{fmt.Sprintf("capped at draw %d", k), k, 0, 0},
			variant{fmt.Sprintf("exhausted at draw %d", k), 0, int64(k - 1), 0},
			variant{fmt.Sprintf("canceled at draw %d", k), 0, 0, int64(k)})
	}
	cases, degraded, canceled := 0, map[string]int{}, 0
	for name, proxy := range referenceProxies(truth) {
		for _, errTarget := range []float64{0.2, 0.08, 0.04} {
			for seed := int64(1); seed <= 3; seed++ {
				vs := variants
				if name == "noisy" && errTarget == 0.04 && seed == 1 {
					vs = slices.Concat(variants, boundary)
				}
				for _, v := range vs {
					for _, score := range []ScoreFunc{carCount, bigScore} {
						opts := Options{ErrTarget: errTarget, Delta: 0.05, MinSamples: 100, MaxSamples: v.maxSamples, Seed: seed}
						newLab := func() labeler.Labeler {
							var lab labeler.Labeler = labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
							if v.budget > 0 {
								lab = labeler.NewBudgeted(lab, v.budget)
							}
							if v.failAt > 0 {
								lab = &failAt{Labeler: lab, at: v.failAt}
							}
							return lab
						}
						want, wantErr := referenceEstimate(opts, ds.Len(), proxy, score, newLab())
						got, gotErr := estimateBoth(t, ds, opts, proxy, score, newLab)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s err=%v seed=%d %s: error %v, reference %v", name, errTarget, seed, v.name, gotErr, wantErr)
						}
						if !sameBits(got, want) {
							t.Fatalf("%s err=%v seed=%d %s:\n got %+v\nwant %+v", name, errTarget, seed, v.name, got, want)
						}
						if got.Degraded {
							degraded[v.name]++
						}
						if errors.Is(gotErr, context.Canceled) {
							canceled++
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d cases equal to the reference, degraded: %v, canceled: %d", cases, degraded, canceled)
	if degraded["exhaust-warmup"] == 0 || degraded["exhaust-loop"] == 0 || degraded["plain"] != 0 {
		t.Errorf("degraded runs per variant = %v: the matrix does not cover both exhaustion paths", degraded)
	}
}

// TestSampleBufferReuse: the sample vectors a run leaves in the pool must not
// reach the next run's answer. Two queries of different lengths over
// different proxies, back to back and then from two goroutines at once (under
// -race), answer exactly what each answers on an empty pool.
func TestSampleBufferReuse(t *testing.T) {
	ds, lab, truth := testEnv(t, 3000)
	proxies := referenceProxies(truth)
	type query struct {
		opts  Options
		proxy []float64
	}
	queries := []query{
		{Options{ErrTarget: 0.04, Delta: 0.05, MinSamples: 100, Seed: 1}, proxies["noisy"]},
		{Options{ErrTarget: 0.2, Delta: 0.05, MinSamples: 100, Seed: 2}, nil},
	}
	fresh := make([]Result, len(queries))
	for i, q := range queries {
		sampleBufs = sync.Pool{New: func() any { return new(sampleBuf) }}
		var err error
		if fresh[i], err = Estimate(q.opts, ds.Len(), q.proxy, carCount, lab); err != nil {
			t.Fatal(err)
		}
	}
	if fresh[0].LabelerCalls <= 2*fresh[1].LabelerCalls {
		t.Fatalf("queries draw %d and %d samples: the short one would not run inside the long one's leftovers", fresh[0].LabelerCalls, fresh[1].LabelerCalls)
	}
	run := func(rounds int) error {
		for r := 0; r < rounds; r++ {
			for i, q := range queries {
				got, err := Estimate(q.opts, ds.Len(), q.proxy, carCount, lab)
				if err != nil {
					return err
				}
				if !sameBits(got, fresh[i]) {
					return fmt.Errorf("round %d query %d on a reused buffer:\n got %+v\nwant %+v", r, i, got, fresh[i])
				}
			}
		}
		return nil
	}
	if err := run(3); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() { errs <- run(10) }()
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestScreenIsALowerBound checks the property the skipping rests on: at every
// sample count, the screen's bound does not exceed the exact half-width by
// more than a sliver of its margin, and it is tight enough to be useful.
func TestScreenIsALowerBound(t *testing.T) {
	_, _, truth := testEnv(t, 3000)
	for name, proxy := range referenceProxies(truth) {
		if proxy == nil {
			proxy = make([]float64, len(truth)) // the screen's view of "no proxy"
		}
		proxyMean := stats.Mean(proxy)
		r := xrand.New(5)
		scr := newStopScreen(math.Inf(-1), 0.05, proxyMean)
		var fs, ps []float64
		loosest := 1.0
		for s := 1; s <= 1500; s++ {
			id := r.Intn(len(truth))
			fs, ps = append(fs, truth[id]), append(ps, proxy[id])
			scr.add(truth[id], proxy[id])
			if s < 100 {
				continue
			}
			c := 0.0
			if v := stats.Variance(ps); v > 0 {
				c = stats.Covariance(fs, ps) / v
			}
			var w stats.Welford
			for i, f := range fs {
				w.Add(f - c*(ps[i]-proxyMean))
			}
			exact := stats.EmpiricalBernsteinRadius(w.StdDev(), w.Range(), w.N(), 0.05)
			sd2, rng, _, trusted := scr.terms()
			if !trusted {
				continue
			}
			bound := math.Sqrt(sd2) + rng
			if bound > exact*(1+screenMargin/1000) {
				t.Fatalf("%s s=%d: screen bound %v above the exact half-width %v", name, s, bound, exact)
			}
			loosest = math.Min(loosest, bound/exact)
		}
		t.Logf("%s: bound/exact >= %.4f", name, loosest)
		if loosest < 0.9 {
			t.Errorf("%s: screen bound fell to %.3f of the exact half-width; it would not skip the pass", name, loosest)
		}
	}
}
