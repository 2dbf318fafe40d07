package proxy

// The batched, row-partitioned training step of internal/nn replaced a
// one-example-at-a-time loop and promises that loop's weights bit for bit at
// every worker count. This file keeps the replaced code — nn's forward,
// Backward, Grads and Adam.Step, and the Train loops of internal/triplet
// and of this package — verbatim as the reference (methods became functions
// and names gained a ref prefix; no arithmetic was touched) and checks both
// trainers against it. It lives here, rather than beside each trainer,
// because this is the one package that can see every trained weight: a
// triplet embedder's come out through embed.NewSnapshot, a proxy's only
// through the unexported fit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/nn"
	"repro/internal/triplet"
	"repro/internal/xrand"
)

// ---- internal/nn at the parent commit ----

type refCache struct {
	acts [][]float64
}

func (c *refCache) Output() []float64 { return c.acts[len(c.acts)-1] }

func refForward(m *nn.MLP, x []float64) *refCache {
	if len(x) != m.Sizes[0] {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), m.Sizes[0]))
	}
	cache := &refCache{acts: make([][]float64, 0, len(m.W)+1)}
	cache.acts = append(cache.acts, x)
	cur := x
	for l := range m.W {
		out := make([]float64, len(m.W[l]))
		for i, row := range m.W[l] {
			s := m.B[l][i]
			for j, w := range row {
				s += w * cur[j]
			}
			out[i] = s
		}
		if l < len(m.W)-1 { // hidden layers use tanh; output stays linear
			for i := range out {
				out[i] = math.Tanh(out[i])
			}
		}
		cache.acts = append(cache.acts, out)
		cur = out
	}
	return cache
}

type refGrads struct {
	W [][][]float64
	B [][]float64
}

func newRefGrads(m *nn.MLP) *refGrads {
	g := &refGrads{}
	for l := range m.W {
		w := make([][]float64, len(m.W[l]))
		for i := range w {
			w[i] = make([]float64, len(m.W[l][i]))
		}
		g.W = append(g.W, w)
		g.B = append(g.B, make([]float64, len(m.B[l])))
	}
	return g
}

func (g *refGrads) Zero() {
	for l := range g.W {
		for i := range g.W[l] {
			for j := range g.W[l][i] {
				g.W[l][i][j] = 0
			}
		}
		for i := range g.B[l] {
			g.B[l][i] = 0
		}
	}
}

func (g *refGrads) Scale(s float64) {
	for l := range g.W {
		for i := range g.W[l] {
			for j := range g.W[l][i] {
				g.W[l][i][j] *= s
			}
		}
		for i := range g.B[l] {
			g.B[l][i] *= s
		}
	}
}

func refBackward(m *nn.MLP, cache *refCache, gradOut []float64, g *refGrads) []float64 {
	if len(gradOut) != m.OutputDim() {
		panic(fmt.Sprintf("nn: gradOut dim %d, want %d", len(gradOut), m.OutputDim()))
	}
	delta := append([]float64(nil), gradOut...)
	for l := len(m.W) - 1; l >= 0; l-- {
		in := cache.acts[l]
		// Accumulate parameter gradients for layer l.
		for i := range m.W[l] {
			g.B[l][i] += delta[i]
			row := g.W[l][i]
			for j := range row {
				row[j] += delta[i] * in[j]
			}
		}
		if l == 0 {
			// Gradient w.r.t. the network input.
			gin := make([]float64, len(in))
			for i, row := range m.W[l] {
				for j, w := range row {
					gin[j] += delta[i] * w
				}
			}
			return gin
		}
		// Propagate to the previous layer through the tanh of layer l-1:
		// d/dz tanh(z) = 1 - tanh(z)^2, and acts[l] stores tanh(z).
		prev := make([]float64, len(cache.acts[l]))
		for i, row := range m.W[l] {
			for j, w := range row {
				prev[j] += delta[i] * w
			}
		}
		a := cache.acts[l]
		for j := range prev {
			prev[j] *= 1 - a[j]*a[j]
		}
		delta = prev
	}
	return nil
}

type refAdam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64

	t      int
	mW, vW [][][]float64
	mB, vB [][]float64
}

func newRefAdam(lr float64) *refAdam {
	return &refAdam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

func (a *refAdam) Step(m *nn.MLP, g *refGrads) {
	if a.mW == nil {
		a.init(m)
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for l := range m.W {
		for i := range m.W[l] {
			for j := range m.W[l][i] {
				a.mW[l][i][j] = a.Beta1*a.mW[l][i][j] + (1-a.Beta1)*g.W[l][i][j]
				a.vW[l][i][j] = a.Beta2*a.vW[l][i][j] + (1-a.Beta2)*g.W[l][i][j]*g.W[l][i][j]
				mHat := a.mW[l][i][j] / c1
				vHat := a.vW[l][i][j] / c2
				m.W[l][i][j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
			}
		}
		for i := range m.B[l] {
			a.mB[l][i] = a.Beta1*a.mB[l][i] + (1-a.Beta1)*g.B[l][i]
			a.vB[l][i] = a.Beta2*a.vB[l][i] + (1-a.Beta2)*g.B[l][i]*g.B[l][i]
			mHat := a.mB[l][i] / c1
			vHat := a.vB[l][i] / c2
			m.B[l][i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

func (a *refAdam) init(m *nn.MLP) {
	zeros := func() (*refGrads, *refGrads) { return newRefGrads(m), newRefGrads(m) }
	g1, g2 := zeros()
	a.mW, a.vW = g1.W, g2.W
	a.mB, a.vB = g1.B, g2.B
}

// ---- internal/triplet.Train at the parent commit ----

func refL2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// refTripletTrain returns the trained network, how many steps found no
// active triplet, and how many Adam steps were taken.
func refTripletTrain(cfg triplet.Config, ds *dataset.Dataset, trainIDs []int, anns []dataset.Annotation, key triplet.BucketKey) (net *nn.MLP, idleSteps, adamSteps int, err error) {
	buckets := triplet.BucketRecords(trainIDs, anns, key)
	r := xrand.New(cfg.Seed)
	if _, ok := buckets.SampleTriplet(r); !ok {
		return nil, 0, 0, triplet.ErrNoTriplets
	}

	sizes := append([]int{ds.FeatureDim()}, cfg.Hidden...)
	sizes = append(sizes, cfg.EmbedDim)
	net = nn.NewMLP(xrand.Split(cfg.Seed, "init"), sizes...)
	opt := newRefAdam(cfg.LR)
	grads := newRefGrads(net)
	sampleRand := xrand.Split(cfg.Seed, "sample")

	for step := 0; step < cfg.Steps; step++ {
		grads.Zero()
		active := 0
		for b := 0; b < cfg.BatchSize; b++ {
			tr, ok := buckets.SampleTriplet(sampleRand)
			if !ok {
				return nil, 0, 0, triplet.ErrNoTriplets
			}
			if cfg.HardNegatives > 1 {
				tr = refHardestNegative(net, ds, buckets, sampleRand, tr, cfg)
			}
			if refBackwardTriplet(net, ds, tr, cfg.Margin, grads) {
				active++
			}
		}
		if active == 0 {
			idleSteps++
			continue
		}
		grads.Scale(1 / float64(active))
		if cfg.WeightDecay > 0 {
			refAddWeightDecay(net, grads, cfg.WeightDecay)
		}
		opt.Step(net, grads)
	}
	return net, idleSteps, opt.t, nil
}

func refHardestNegative(net *nn.MLP, ds *dataset.Dataset, buckets *triplet.Buckets, r *rand.Rand, tr triplet.Triplet, cfg triplet.Config) triplet.Triplet {
	a := refForward(net, ds.Records[tr.Anchor].Features).Output()
	p := refForward(net, ds.Records[tr.Positive].Features).Output()
	best := tr
	bestLoss := triplet.Loss(a, p, refForward(net, ds.Records[tr.Negative].Features).Output(), cfg.Margin)
	for i := 1; i < cfg.HardNegatives; i++ {
		cand, ok := buckets.SampleTriplet(r)
		if !ok {
			break
		}
		// Only the negative is swapped in; it must come from a bucket
		// different from the anchor's, which SampleTriplet guarantees for
		// its own anchor but not ours.
		if buckets.Key(tr.Anchor) == buckets.Key(cand.Negative) {
			continue
		}
		loss := triplet.Loss(a, p, refForward(net, ds.Records[cand.Negative].Features).Output(), cfg.Margin)
		if loss > bestLoss {
			best.Negative = cand.Negative
			bestLoss = loss
		}
	}
	return best
}

func refAddWeightDecay(net *nn.MLP, grads *refGrads, wd float64) {
	for l := range net.W {
		for i := range net.W[l] {
			for j := range net.W[l][i] {
				grads.W[l][i][j] += wd * net.W[l][i][j]
			}
		}
	}
}

func refBackwardTriplet(net *nn.MLP, ds *dataset.Dataset, tr triplet.Triplet, margin float64, grads *refGrads) bool {
	ca := refForward(net, ds.Records[tr.Anchor].Features)
	cp := refForward(net, ds.Records[tr.Positive].Features)
	cn := refForward(net, ds.Records[tr.Negative].Features)
	a, p, n := ca.Output(), cp.Output(), cn.Output()

	dp := refL2(a, p)
	dn := refL2(a, n)
	if margin+dp-dn <= 0 {
		return false
	}
	dim := len(a)
	ga := make([]float64, dim)
	gp := make([]float64, dim)
	gn := make([]float64, dim)
	for i := 0; i < dim; i++ {
		if dp > 1e-12 {
			u := (a[i] - p[i]) / dp
			ga[i] += u
			gp[i] -= u
		}
		if dn > 1e-12 {
			v := (a[i] - n[i]) / dn
			ga[i] -= v
			gn[i] += v
		}
	}
	refBackward(net, ca, ga, grads)
	refBackward(net, cp, gp, grads)
	refBackward(net, cn, gn, grads)
	return true
}

// ---- this package's Train at the parent commit ----

func refProxyTrain(cfg Config, ds *dataset.Dataset, ids []int, targets []float64) *nn.MLP {
	net := nn.NewMLP(xrand.Split(cfg.Seed, "proxy-init"), ds.FeatureDim(), cfg.Hidden, 1)
	opt := newRefAdam(cfg.LR)
	grads := newRefGrads(net)
	r := xrand.Split(cfg.Seed, "proxy-shuffle")

	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		xrand.Shuffle(r, order)
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			grads.Zero()
			for _, j := range order[start:end] {
				cache := refForward(net, ds.Records[ids[j]].Features)
				out := cache.Output()[0]
				var g float64
				switch cfg.Kind {
				case Regression:
					g = out - targets[j] // d/dout 0.5*(out-y)^2
				case Classification:
					g = sigmoid(out) - targets[j] // d/dlogit BCE
				}
				refBackward(net, cache, []float64{g}, grads)
			}
			grads.Scale(1 / float64(end-start))
			opt.Step(net, grads)
		}
	}
	return net
}

// ---- the checks ----

var parityWorkers = []int{1, 2, 4, 7}

func sameBits(t *testing.T, what string, got, want *nn.MLP) {
	t.Helper()
	for l := range want.W {
		for i := range want.W[l] {
			for j := range want.W[l][i] {
				if math.Float64bits(got.W[l][i][j]) != math.Float64bits(want.W[l][i][j]) {
					t.Fatalf("%s: W[%d][%d][%d] = %v (%x), reference %v (%x)", what, l, i, j,
						got.W[l][i][j], math.Float64bits(got.W[l][i][j]), want.W[l][i][j], math.Float64bits(want.W[l][i][j]))
				}
			}
			if math.Float64bits(got.B[l][i]) != math.Float64bits(want.B[l][i]) {
				t.Fatalf("%s: B[%d][%d] = %v, reference %v", what, l, i, got.B[l][i], want.B[l][i])
			}
		}
	}
}

func labeled(t *testing.T, name string, size, n int) (*dataset.Dataset, []int, []dataset.Annotation) {
	t.Helper()
	ds, err := dataset.Generate(name, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, n)
	anns := make([]dataset.Annotation, n)
	for i := range ids {
		ids[i] = i * (size / n)
		anns[i] = ds.Truth[ids[i]]
	}
	return ds, ids, anns
}

// TestTripletTrainMatchesPerExampleReference: every weight and bias of
// triplet.Train equals the replaced per-example loop's, for each dataset's
// input width, with and without semi-hard mining and weight decay, at batch
// sizes no worker count divides, at every worker count.
func TestTripletTrainMatchesPerExampleReference(t *testing.T) {
	corpora := []struct {
		name string
		key  triplet.BucketKey
	}{
		{"taipei", triplet.VideoBucketKey(0.5)},
		{"wikisql", triplet.TextBucketKey()},
		{"common-voice", triplet.SpeechBucketKey()},
	}
	for ci, c := range corpora {
		ds, ids, anns := labeled(t, c.name, 600, 150)
		for _, hard := range []int{0, 4} {
			for _, wd := range []float64{0, 1e-4} {
				cfg := triplet.DefaultConfig(24, int64(7+ci))
				cfg.Hidden = []int{40}
				cfg.Steps, cfg.BatchSize = 25, 13
				cfg.HardNegatives, cfg.WeightDecay = hard, wd
				if ci == 0 && hard == 4 && wd > 0 {
					// Once at the shape every index build trains.
					cfg = triplet.DefaultConfig(128, 7)
					cfg.Steps, cfg.BatchSize, cfg.HardNegatives = 12, 9, hard
				}
				want, _, _, err := refTripletTrain(cfg, ds, ids, anns, c.key)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range parityWorkers {
					trained, err := triplet.Train(cfg, ds, ids, anns, c.key, workers)
					if err != nil {
						t.Fatal(err)
					}
					snap, err := embed.NewSnapshot(trained)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("%s hard=%d wd=%g workers=%d", c.name, hard, wd, workers), snap.Net, want)
				}
			}
		}
	}
}

// TestTripletTrainIdleStepsMatchReference runs long enough, at a margin
// small enough, that whole batches come up with zero loss. Those steps must
// leave the weights alone and must not advance Adam's step count, or every
// later bias correction — and so every later weight — differs.
func TestTripletTrainIdleStepsMatchReference(t *testing.T) {
	ds, ids, anns := labeled(t, "common-voice", 600, 60)
	cfg := triplet.DefaultConfig(8, 11)
	cfg.Hidden = []int{16}
	cfg.Margin = 0.02
	cfg.Steps, cfg.BatchSize = 1500, 3
	want, idle, adamSteps, err := refTripletTrain(cfg, ds, ids, anns, triplet.SpeechBucketKey())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d steps idle, %d Adam steps", idle, cfg.Steps, adamSteps)
	if idle == 0 || idle+adamSteps != cfg.Steps {
		t.Fatalf("reference run has %d idle and %d Adam steps of %d: the case is not exercised", idle, adamSteps, cfg.Steps)
	}
	// Active steps must follow idle ones for the step count to matter.
	if _, idleEarly, _, _ := refTripletTrain(withSteps(cfg, cfg.Steps/2), ds, ids, anns, triplet.SpeechBucketKey()); idleEarly == 0 || idleEarly == idle {
		t.Fatalf("idle steps by half-way %d, by the end %d: want some early and some late", idleEarly, idle)
	}
	for _, workers := range parityWorkers {
		trained, err := triplet.Train(cfg, ds, ids, anns, triplet.SpeechBucketKey(), workers)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := embed.NewSnapshot(trained)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("idle steps, workers=%d", workers), snap.Net, want)
	}
}

func withSteps(cfg triplet.Config, steps int) triplet.Config {
	cfg.Steps = steps
	return cfg
}

// TestProxyTrainMatchesPerExampleReference: both objectives, a training set
// whose last batch of every epoch is ragged, every worker count.
func TestProxyTrainMatchesPerExampleReference(t *testing.T) {
	ds, ids, anns := labeled(t, "taipei", 800, 203)
	for _, kind := range []Kind{Regression, Classification} {
		targets := make([]float64, len(ids))
		for i, ann := range anns {
			targets[i] = float64(ann.(dataset.VideoAnnotation).Count("car"))
			if kind == Classification && targets[i] > 1 {
				targets[i] = 1
			}
		}
		cfg := DefaultConfig(kind, 9)
		cfg.Epochs = 6
		if len(ids)%cfg.BatchSize == 0 {
			t.Fatal("training set divides into whole batches: the ragged batch is not exercised")
		}
		want := refProxyTrain(cfg, ds, ids, targets)
		for _, workers := range parityWorkers {
			got, err := fit(cfg, ds, ids, targets, workers)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("kind=%d workers=%d", kind, workers), got, want)
		}
		// And the served scores are the reference forward pass's.
		model, err := Train(cfg, ds, ids, targets, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range model.Scores(ds) {
			ref := refForward(want, ds.Records[i].Features).Output()[0]
			if kind == Classification {
				ref = sigmoid(ref)
			}
			if math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("kind=%d record %d: score %v, reference %v", kind, i, got, ref)
			}
		}
	}
}
