package triplet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/nn"
	"repro/internal/xrand"
)

// ErrNoTriplets is returned when the labeled training set cannot produce
// any (anchor, positive, negative) triple — e.g. all records fall in one
// bucket.
var ErrNoTriplets = errors.New("triplet: training set yields no triplets")

// Config parameterizes triplet training of the embedding MLP.
type Config struct {
	// EmbedDim is the output embedding dimensionality (paper default 128).
	EmbedDim int
	// Hidden lists the MLP hidden-layer widths.
	Hidden []int
	// Margin is the triplet-loss margin m.
	Margin float64
	// Steps is the number of optimizer steps.
	Steps int
	// BatchSize is the number of triplets per step.
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// WeightDecay is the L2 regularization coefficient.
	WeightDecay float64
	// HardNegatives enables semi-hard negative mining: each triplet's
	// negative is the most loss-violating of HardNegatives candidate draws
	// (0 or 1 disables mining). Hard negatives sharpen the margin around
	// bucket boundaries at the cost of extra forward passes.
	HardNegatives int
	// Seed makes training deterministic.
	Seed int64
}

// DefaultConfig returns the training settings used across the evaluation.
func DefaultConfig(embedDim int, seed int64) Config {
	return Config{
		EmbedDim:    embedDim,
		Hidden:      []int{160},
		Margin:      1.0,
		Steps:       4000,
		BatchSize:   32,
		LR:          3e-3,
		WeightDecay: 1e-4,
		Seed:        seed,
	}
}

// Loss returns the per-example margin triplet loss
// max(0, m + |a-p| - |a-n|) for embedded points.
func Loss(anchor, pos, neg []float64, margin float64) float64 {
	dp := l2(anchor, pos)
	dn := l2(anchor, neg)
	return math.Max(0, margin+dp-dn)
}

func l2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d) // rounded: no host fuses it into a multiply-add
	}
	return math.Sqrt(s)
}

// Train fine-tunes a fresh MLP embedder with the triplet loss over the
// labeled training records. trainIDs and anns are parallel slices: the
// training record IDs and their target-labeler annotations. Triplets are
// sampled by bucketing the annotations under key (paper Section 3.1). p is
// the parallelism level (p <= 0 uses all CPUs); the trained weights are
// bitwise identical at every p.
func Train(cfg Config, ds *dataset.Dataset, trainIDs []int, anns []dataset.Annotation, key BucketKey, p int) (*embed.Trained, error) {
	trained, _, err := Fit(cfg, ds, trainIDs, anns, key, p)
	return trained, err
}

// FitStats counts what one training run did. Both counts are the same at
// every parallelism.
type FitStats struct {
	// ActiveSteps is how many steps had a triplet inside the margin, and so
	// moved the weights; the rest left them as they were.
	ActiveSteps int
	// ForwardedRows is how many training records the steps ran through the
	// network: a step forwards only the records it draws whose activations
	// the last active step made stale.
	ForwardedRows int
}

// Fit is Train that also reports what the run did.
func Fit(cfg Config, ds *dataset.Dataset, trainIDs []int, anns []dataset.Annotation, key BucketKey, p int) (*embed.Trained, FitStats, error) {
	var stats FitStats
	if cfg.EmbedDim <= 0 {
		return nil, stats, fmt.Errorf("triplet: invalid embed dim %d", cfg.EmbedDim)
	}
	if cfg.BatchSize <= 0 || cfg.Steps < 0 {
		return nil, stats, fmt.Errorf("triplet: invalid batch size %d or step count %d", cfg.BatchSize, cfg.Steps)
	}
	for _, h := range cfg.Hidden {
		if h <= 0 {
			return nil, stats, fmt.Errorf("triplet: invalid hidden widths %v", cfg.Hidden)
		}
	}
	if len(trainIDs) != len(anns) {
		return nil, stats, fmt.Errorf("triplet: %d train ids but %d annotations", len(trainIDs), len(anns))
	}
	buckets := BucketRecords(trainIDs, anns, key)
	r := xrand.New(cfg.Seed)
	if _, ok := buckets.SampleTriplet(r); !ok {
		return nil, stats, ErrNoTriplets
	}

	sizes := append([]int{ds.FeatureDim()}, cfg.Hidden...)
	sizes = append(sizes, cfg.EmbedDim)
	net := nn.NewMLP(xrand.Split(cfg.Seed, "init"), sizes...)
	// The trainer's rows are the training records, each mapped to its row
	// once; a record listed twice in trainIDs is drawn under its first row.
	inputs := make([][]float64, len(trainIDs))
	rowOf := make(map[int]int, len(trainIDs))
	for i, id := range trainIDs {
		inputs[i] = ds.Records[id].Features
		if _, ok := rowOf[id]; !ok {
			rowOf[id] = i
		}
	}
	batch := make([]draw, cfg.BatchSize)
	// One slot per back-propagated pass: anchor, positive, negative.
	trainer := nn.NewTrainer(net, nn.NewAdam(cfg.LR), inputs, len(batch), 3, p)
	defer trainer.Close()
	trainer.WeightDecay = cfg.WeightDecay
	sampleRand := xrand.Split(cfg.Seed, "sample")
	var rows []int
	// One callback for the whole fit, so a step allocates nothing.
	example := func(e int, ex *nn.Example) {
		backwardTriplet(ex, batch[e].rows, cfg.Margin)
	}

	for step := 0; step < cfg.Steps; step++ {
		// Drawing never reads the network, so the whole batch is drawn —
		// and the rows it reads listed — before any of it is evaluated.
		rows = rows[:0]
		for b := range batch {
			if !batch[b].sample(buckets, sampleRand, cfg.HardNegatives) {
				return nil, stats, ErrNoTriplets
			}
			batch[b].listRows(rowOf)
			rows = append(rows, batch[b].rows...)
		}
		if trainer.Step(rows, len(batch), example) > 0 {
			stats.ActiveSteps++
		}
	}
	stats.ForwardedRows = trainer.ForwardedRows()
	return embed.NewTrained(net), stats, nil
}

// draw is one batch element as sampled: the triplet, under semi-hard
// mining the candidate negatives that may replace its negative, and the
// trainer rows of all of these.
type draw struct {
	Triplet
	candidates []int
	rows       []int // anchor, positive, negative, then the candidates
}

// listRows fills d.rows with the trainer rows of the draw's records.
func (d *draw) listRows(rowOf map[int]int) {
	d.rows = append(d.rows[:0], rowOf[d.Anchor], rowOf[d.Positive], rowOf[d.Negative])
	for _, id := range d.candidates {
		d.rows = append(d.rows, rowOf[id])
	}
}

// sample draws the triplet and, for hardNegatives > 1, hardNegatives-1
// further triplets whose negatives become candidates. A candidate must come
// from a bucket different from the anchor's, which SampleTriplet guarantees
// for its own anchor but not ours, so same-bucket ones are dropped.
func (d *draw) sample(buckets *Buckets, r *rand.Rand, hardNegatives int) bool {
	tr, ok := buckets.SampleTriplet(r)
	if !ok {
		return false
	}
	d.Triplet, d.candidates = tr, d.candidates[:0]
	for i := 1; i < hardNegatives; i++ {
		cand, ok := buckets.SampleTriplet(r)
		if !ok {
			break
		}
		if buckets.Key(tr.Anchor) != buckets.Key(cand.Negative) {
			d.candidates = append(d.candidates, cand.Negative)
		}
	}
	return true
}

// backwardTriplet evaluates one drawn triplet — rows are its anchor,
// positive and negative input rows, then any candidate negatives' — under
// the current network and, when its loss is positive, back-propagates it.
// With candidates (semi-hard mining) the negative is first replaced by the
// candidate with the highest triplet loss; the anchor and positive stay
// fixed.
func backwardTriplet(ex *nn.Example, rows []int, margin float64) {
	a := ex.Output(rows[0])
	p := ex.Output(rows[1])
	neg := rows[2]
	n := ex.Output(neg)
	if len(rows) > 3 {
		bestLoss := Loss(a, p, n, margin)
		for _, r := range rows[3:] {
			c := ex.Output(r)
			if loss := Loss(a, p, c, margin); loss > bestLoss {
				bestLoss, n, neg = loss, c, r
			}
		}
	}

	dp := l2(a, p)
	dn := l2(a, n)
	if margin+dp-dn <= 0 {
		return
	}
	// L = m + |a-p| - |a-n| when positive, so
	//   dL/da = (a-p)/|a-p| - (a-n)/|a-n|
	//   dL/dp = -(a-p)/|a-p|
	//   dL/dn =  (a-n)/|a-n|
	// with zero-distance guards.
	ga, gp, gn := ex.Grad(0, rows[0]), ex.Grad(1, rows[1]), ex.Grad(2, neg)
	for i := range a {
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
	ex.Backward(0)
	ex.Backward(1)
	ex.Backward(2)
}

// EmpiricalLoss estimates the population triplet loss L(φ; ·, m) of an
// embedder by sampling numSamples triplets from the bucketed annotations.
// It is the quantity the paper's Theorems 1 and 2 bound query error by.
func EmpiricalLoss(r *rand.Rand, e embed.Embedder, ds *dataset.Dataset, trainIDs []int, anns []dataset.Annotation, key BucketKey, margin float64, numSamples int) (float64, error) {
	if numSamples <= 0 {
		return 0, fmt.Errorf("triplet: empirical loss over %d samples", numSamples)
	}
	buckets := BucketRecords(trainIDs, anns, key)
	total := 0.0
	for i := 0; i < numSamples; i++ {
		tr, ok := buckets.SampleTriplet(r)
		if !ok {
			return 0, ErrNoTriplets
		}
		a := e.Embed(ds.Records[tr.Anchor].Features)
		p := e.Embed(ds.Records[tr.Positive].Features)
		n := e.Embed(ds.Records[tr.Negative].Features)
		total += Loss(a, p, n, margin)
	}
	return total / float64(numSamples), nil
}
