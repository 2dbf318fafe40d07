package shard

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/query/aggregation"
	"repro/internal/query/limitq"
	"repro/internal/query/supg"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Query is one query for Version.Run: exactly one of its fields is set.
type Query struct {
	Aggregate *Aggregate
	Select    *Select
	Limit     *Limit
}

// Aggregate estimates the mean of Score over the corpus to an absolute error
// of ErrTarget at δ = 0.05 (EBS sampling with the weighted proxy column as
// control variate, aggregation.EstimateValues).
type Aggregate struct {
	Score     Scorer
	ErrTarget float64
	Seed      int64
}

// Select returns the records Match scores non-zero (a core.MatchScore) at
// recall Recall with probability 0.95, spending Budget draws (SUPG's
// recall target over the weighted proxy column of Match).
type Select struct {
	Match  Scorer
	Budget int
	Recall float64
	Seed   int64
}

// Limit finds K records Pred accepts, labeling in descending order of
// Score's nearest-representative propagation, ties by the distance to that
// representative, then ID. Crack asks Run for the labels worth adding as
// representatives (Answer.Crack).
type Limit struct {
	Score Scorer
	Pred  func(dataset.Annotation) bool
	K     int
	Crack bool
}

// Answer is what Run found and what the query cost.
type Answer struct {
	// Aggregate is an Aggregate query's estimate.
	Aggregate aggregation.Result
	// Selection is a Select query's returned set, and Returned its size —
	// counted inside the sample span, where the first count over a column
	// sorts the design's scores.
	Selection supg.Selection
	Returned  int
	// Limit is a Limit query's scan.
	Limit limitq.Result
	// Crack is what a Limit with Crack set leaves for the caller to add as
	// representatives (Index.CrackAll): every record the scan labeled, or
	// only its matches when the scan ran out — an exhausted scan labeled the
	// whole corpus, and promoting all of it would make every record a
	// representative. Nil for every other query.
	Crack map[int]dataset.Annotation

	// Records is the propagation the query read: 0 when the proxy column
	// could not be had.
	Records int
	// Hits counts the labels the system already owned — a store or index
	// annotation, or an exact score the column had memoized — and Misses the
	// rest: labels bought from the oracle or shared with another caller's
	// in-flight call. Hits+Misses is the query's label calls. Both are set
	// when Run fails too.
	Hits, Misses int64
}

// errNoQuery rejects a Query with no field set.
var errNoQuery = errors.New("shard: query sets none of Aggregate, Select and Limit")

// Run answers q over this version, labeling through labels, which should be
// bound to a lookup of this version's annotations (AnnotationOf) so that
// representatives cost nothing. It opens its spans under sp (nil runs
// untraced): "propagate", with a cache attr, for the proxy column fetch
// (Column); then "estimate" for an aggregate, "sample" for a select, or
// "order" (with a cache attr) and "scan" for a limit, each with the query's
// label_calls. Every draw checks ctx first, so a canceled request stops at
// its next draw even when the column answers every draw from its memo of
// exact scores. The estimators count into the version's telemetry.
func (v *Version) Run(ctx context.Context, q Query, labels *store.Bound, sp *telemetry.Span) (ans Answer, err error) {
	var sc Scorer
	kind := ColumnWeighted
	switch {
	case q.Aggregate != nil:
		sc = q.Aggregate.Score
	case q.Select != nil:
		sc = q.Select.Match
	case q.Limit != nil:
		sc, kind = q.Limit.Score, ColumnNearest
	default:
		return ans, errNoQuery
	}
	psp := sp.Child("propagate")
	col, hit, err := v.Column(sc, kind)
	psp.SetAttr("cache", cacheAttr(hit))
	psp.End()
	if err != nil {
		return ans, err
	}
	ans.Records = len(col.Scores)
	r := &request{ctx: ctx, done: ctx.Done(), labels: labels}
	defer func() { ans.Hits, ans.Misses = r.hits, r.misses }()

	switch {
	case q.Aggregate != nil:
		a := q.Aggregate
		esp := sp.Child("estimate")
		ans.Aggregate, err = aggregation.EstimateValues(aggregation.Options{
			ErrTarget: a.ErrTarget, Delta: 0.05, MinSamples: 100, Seed: a.Seed, Telemetry: v.w.tel,
		}, len(col.Scores), col.Scores, col.Mean, values{r: r, col: col, score: a.Score.Score})
		esp.SetAttr("label_calls", ans.Aggregate.LabelerCalls)
		esp.End()
	case q.Select != nil:
		s := q.Select
		// The design's O(records) passes run on the first select over a
		// column; after them the draws, the threshold search and a binary
		// search that counts the returned set.
		ssp := sp.Child("sample")
		ans.Selection, err = col.Design().RecallTargetSelection(supg.Options{
			Budget: s.Budget, Target: s.Recall, Delta: 0.05, Seed: s.Seed, Telemetry: v.w.tel,
		}, matches{values{r: r, col: col, score: s.Match.Score}})
		if err == nil {
			ans.Returned = ans.Selection.Len()
		}
		ssp.SetAttr("label_calls", ans.Selection.OracleCalls)
		ssp.End()
	default:
		l := q.Limit
		// The order span is the heapify, one range per worker, on the
		// column's first limit and nothing after it; the scan reads the column's shared scan
		// prefix, so an ID no earlier request reached is a pop billed to it.
		osp := sp.Child("order")
		cur, ordered := col.Cursor()
		osp.SetAttr("cache", cacheAttr(ordered))
		osp.End()
		scan := sp.Child("scan")
		ans.Limit, err = limitq.RunNext(limitq.Options{Telemetry: v.w.tel}, l.K, cur.Next, l.Pred, r)
		scan.SetAttr("label_calls", ans.Limit.OracleCalls)
		scan.End()
		if err == nil && l.Crack {
			ans.Crack = ans.Limit.Labeled
			if ans.Limit.Exhausted {
				ans.Crack = make(map[int]dataset.Annotation, len(ans.Limit.Found))
				for _, id := range ans.Limit.Found {
					ans.Crack[id] = ans.Limit.Labeled[id]
				}
			}
		}
	}
	return ans, err
}

// cacheAttr is the value of a span's cache attribute.
func cacheAttr(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// request is one Run's labeler and its tally. A label is one Resolve on the
// bound store, which reports where it came from: the store, the version's
// annotations, another caller's in-flight call, or the oracle. Aggregates
// and selects need only a score of the label and draw through values /
// matches: a draw on a record whose exact score the column already holds is
// that one read, and any other draw is Label, scored once and memoized in
// the column. A column knows a record's score only after the store holds its
// label, so such a draw counts as the store hit Label would have made it.
// The estimators draw from one goroutine, so the tally needs no atomics.
type request struct {
	ctx          context.Context
	done         <-chan struct{} // ctx.Done(): a canceled request stops drawing hits too
	labels       *store.Bound
	hits, misses int64
}

func (r *request) Label(id int) (dataset.Annotation, error) {
	select {
	case <-r.done:
		return nil, r.ctx.Err()
	default:
	}
	ann, src, err := r.labels.Resolve(r.ctx, id)
	if err != nil {
		return nil, err
	}
	if src.Hit() {
		r.hits++
	} else {
		r.misses++
	}
	return ann, nil
}

func (r *request) Name() string            { return r.labels.Name() }
func (r *request) Cost() labeler.CostModel { return r.labels.Cost() }

// values is request r's value source for score, the scoring function of col:
// it answers a draw from col's exact scores where it knows them, and otherwise
// labels the record through r and memoizes its score.
type values struct {
	r     *request
	col   *Column
	score core.ScoreFunc
}

// Peek reads the block's known scores from the column in one pass.
func (s values) Peek(ids []int, vals []float64, known []bool) { s.col.peek(ids, vals, known) }

// Value consumes one draw. A draw Peek found known is the store hit it stands
// for: the context is checked, the hit booked, nothing else read. Any other
// draw looks at the column again first — an earlier draw of the same block,
// or another request, may have learnt the score since the peek — and only
// then labels.
func (s values) Value(id int, v float64, known bool) (float64, error) {
	if !known {
		v, known = s.col.Value(id)
	}
	if known {
		select {
		case <-s.r.done:
			return 0, s.r.ctx.Err()
		default:
		}
		s.r.hits++
		return v, nil
	}
	ann, err := s.r.Label(id)
	if err != nil {
		return 0, err
	}
	v = s.score(ann)
	s.col.setValue(id, v)
	return v, nil
}

// matches is values for a predicate's 0/1 scoring function (core.MatchScore),
// read as supg's match source: a record matches when its score is not 0.
type matches struct{ values }

// Peek reads the block's known matches, a chunk of scores at a time.
func (m matches) Peek(ids []int, match, known []bool) {
	var vals [xrand.Block]float64
	for len(ids) > 0 {
		k := min(len(ids), len(vals))
		m.col.peek(ids[:k], vals[:k], known[:k])
		for i, v := range vals[:k] {
			match[i] = v != 0
		}
		ids, match, known = ids[k:], match[k:], known[k:]
	}
}

// Match consumes one draw, as Value; a peeked match stands for a score of 1
// or 0, which is all Value reads of it.
func (m matches) Match(id int, match, known bool) (bool, error) {
	v := 0.0
	if match {
		v = 1
	}
	v, err := m.Value(id, v, known)
	return v != 0, err
}
