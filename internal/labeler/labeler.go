// Package labeler models target labelers: the expensive DNNs or human
// annotators that turn unstructured records into structured annotations.
//
// The evaluation's primary metric is the number of target-labeler
// invocations, so every labeler here is wrapped in counting; simulated
// per-call costs (seconds of GPU time or dollars of crowd work) turn counts
// into the wall-clock and dollar figures of the paper's Figure 2 and Table 1.
package labeler

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/dataset"
)

// ErrBudgetExhausted is returned by a Budgeted labeler once its invocation
// budget is spent.
var ErrBudgetExhausted = errors.New("labeler: budget exhausted")

// Labeler produces the structured annotation for a record ID.
type Labeler interface {
	// Label returns the annotation for the record with the given ID.
	Label(id int) (dataset.Annotation, error)
	// Name identifies the labeler (e.g. "mask-rcnn").
	Name() string
	// Cost returns the simulated per-invocation cost.
	Cost() CostModel
}

// CostModel is the simulated cost of one labeler invocation.
type CostModel struct {
	// Seconds of compute per call (GPU inference time).
	Seconds float64
	// Dollars per call (crowd work).
	Dollars float64
}

// Mul scales the per-call cost by an invocation count.
func (c CostModel) Mul(calls int64) CostModel {
	return CostModel{Seconds: c.Seconds * float64(calls), Dollars: c.Dollars * float64(calls)}
}

// Add sums two costs.
func (c CostModel) Add(o CostModel) CostModel {
	return CostModel{Seconds: c.Seconds + o.Seconds, Dollars: c.Dollars + o.Dollars}
}

// String renders the cost compactly.
func (c CostModel) String() string {
	if c.Dollars > 0 {
		return fmt.Sprintf("$%.0f", c.Dollars)
	}
	return fmt.Sprintf("%.0f s", c.Seconds)
}

// Per-call costs calibrated to the paper's Section 3.4 and Table 1:
// Mask R-CNN runs at ~3 fps, SSD ~50x faster, human labels cost ~$0.07 each,
// and the embedding DNN runs at ~12,000 fps.
var (
	MaskRCNNCost  = CostModel{Seconds: 1.0 / 3.0}
	SSDCost       = CostModel{Seconds: 1.0 / 150.0}
	HumanCost     = CostModel{Dollars: 0.07}
	EmbeddingCost = CostModel{Seconds: 1.0 / 12000.0}
)

// Oracle returns the dataset's ground truth exactly: the stand-in for the
// most accurate target labeler (Mask R-CNN on video, crowd workers on text
// and speech).
type Oracle struct {
	corpus func() *dataset.Dataset
	name   string
	cost   CostModel
}

// NewOracle builds an exact labeler over ds with the given display name and
// per-call cost.
func NewOracle(ds *dataset.Dataset, name string, cost CostModel) *Oracle {
	return NewLiveOracle(func() *dataset.Dataset { return ds }, name, cost)
}

// NewLiveOracle is NewOracle over a corpus that grows while it is served:
// every call labels from the view corpus returns at that moment. The owner
// publishes each extended view whole (an atomic pointer to a new Dataset
// value), so a call never reads a corpus that is being appended to.
func NewLiveOracle(corpus func() *dataset.Dataset, name string, cost CostModel) *Oracle {
	return &Oracle{corpus: corpus, name: name, cost: cost}
}

// Label implements Labeler.
func (o *Oracle) Label(id int) (dataset.Annotation, error) {
	ds := o.corpus()
	if id < 0 || id >= ds.Len() {
		return nil, fmt.Errorf("labeler %s: record %d out of range [0,%d)", o.name, id, ds.Len())
	}
	return ds.Truth[id], nil
}

// Name implements Labeler.
func (o *Oracle) Name() string { return o.name }

// Cost implements Labeler.
func (o *Oracle) Cost() CostModel { return o.cost }

// Counting wraps a labeler and records how many invocations it served. It is
// safe for concurrent use.
type Counting struct {
	inner Labeler

	mu    sync.Mutex
	calls int64
}

// NewCounting wraps inner with invocation accounting.
func NewCounting(inner Labeler) *Counting {
	return &Counting{inner: inner}
}

// Label implements Labeler.
func (c *Counting) Label(id int) (dataset.Annotation, error) {
	return c.LabelContext(context.Background(), id)
}

// LabelContext implements ContextLabeler, forwarding ctx to context-aware
// inner labelers so cancellation passes through the accounting layer.
func (c *Counting) LabelContext(ctx context.Context, id int) (dataset.Annotation, error) {
	ann, err := LabelWithContext(ctx, c.inner, id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return ann, nil
}

// Name implements Labeler.
func (c *Counting) Name() string { return c.inner.Name() }

// Cost implements Labeler.
func (c *Counting) Cost() CostModel { return c.inner.Cost() }

// Calls returns the total invocations served.
func (c *Counting) Calls() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// Reset zeroes the counter.
func (c *Counting) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = 0
}

// Budgeted wraps a labeler with a hard invocation budget; once spent, Label
// returns ErrBudgetExhausted. It is safe for concurrent use.
type Budgeted struct {
	inner Labeler

	mu        sync.Mutex
	remaining int64
}

// NewBudgeted wraps inner with a budget of n invocations.
func NewBudgeted(inner Labeler, n int64) *Budgeted {
	return &Budgeted{inner: inner, remaining: n}
}

// Label implements Labeler.
func (b *Budgeted) Label(id int) (dataset.Annotation, error) {
	return b.LabelContext(context.Background(), id)
}

// LabelContext implements ContextLabeler. Note ErrBudgetExhausted is
// terminal, not retryable: retry middleware passes it through, and the build
// pipeline turns it into a resumable BuildInterruptedError.
func (b *Budgeted) LabelContext(ctx context.Context, id int) (dataset.Annotation, error) {
	b.mu.Lock()
	if b.remaining <= 0 {
		b.mu.Unlock()
		return nil, ErrBudgetExhausted
	}
	b.remaining--
	b.mu.Unlock()
	return LabelWithContext(ctx, b.inner, id)
}

// Name implements Labeler.
func (b *Budgeted) Name() string { return b.inner.Name() }

// Cost implements Labeler.
func (b *Budgeted) Cost() CostModel { return b.inner.Cost() }

// Remaining returns how many invocations the budget still allows.
func (b *Budgeted) Remaining() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.remaining
}
