package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/tasti"
)

// The response bodies of the three query routes and /ingest. Pointer fields
// distinguish an absent key from a zero value: a 200 missing a key is an
// unparsable answer and counts as failed.
type (
	aggregateAnswer struct {
		Estimate   *float64 `json:"estimate"`
		HalfWidth  *float64 `json:"half_width"`
		LabelCalls *int64   `json:"label_calls"`
		Degraded   *bool    `json:"degraded"`
	}
	selectAnswer struct {
		Returned   *int     `json:"returned"`
		Threshold  *float64 `json:"threshold"`
		LabelCalls *int64   `json:"label_calls"`
		SampleIDs  []int    `json:"sample_ids"`
		Degraded   *bool    `json:"degraded"`
	}
	limitAnswer struct {
		Found      []int  `json:"found"`
		LabelCalls *int64 `json:"label_calls"`
		Exhausted  *bool  `json:"exhausted"`
		Cracked    *int   `json:"cracked"`
		Degraded   *bool  `json:"degraded"`
	}
	ingestAnswer struct {
		Base  *int `json:"base"`
		Count *int `json:"count"`
	}
)

func decodeStrict(body []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checker verifies answers against the regenerated ground truth. truth grows
// with every acked ingest batch, so found ids that name appended records are
// checked too; fold the acks in before checking replies.
type checker struct {
	pool     []shape
	readOnly bool
	base     int                // records in the generated corpus
	truth    []tasti.Annotation // base corpus, then acked appends in id order
	appended []tasti.Annotation // every record the writer will send, in order

	firstBody map[int][]byte        // shape -> first answer, for the repeat check
	means     map[string][2]float64 // class -> truthMeans
	missed    map[int]bool          // aggregate shapes whose interval missed the truth
	aggTotal  int
	aggMissed int
	problems  []string
}

func newChecker(pool []shape, readOnly bool, corpus, ingest *tasti.Dataset) *checker {
	c := &checker{
		pool: pool, readOnly: readOnly, base: corpus.Len(),
		truth:     append([]tasti.Annotation(nil), corpus.Truth...),
		firstBody: map[int][]byte{}, means: map[string][2]float64{}, missed: map[int]bool{},
	}
	if ingest != nil {
		c.appended = ingest.Truth
	}
	return c
}

func (c *checker) problem(format string, args ...interface{}) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// truthMeans returns the range the true mean count of class can take between
// the base corpus and the corpus with every scheduled append applied: an
// answer computed mid-ingest saw some prefix of the appends.
func (c *checker) truthMeans(class string) (lo, hi float64) {
	if m, ok := c.means[class]; ok {
		return m[0], m[1]
	}
	sum := 0.0
	for _, ann := range c.truth[:c.base] {
		sum += float64(ann.(tasti.VideoAnnotation).Count(class))
	}
	lo = sum / float64(c.base)
	hi = lo
	if !c.readOnly {
		for _, ann := range c.appended {
			sum += float64(ann.(tasti.VideoAnnotation).Count(class))
		}
		all := sum / float64(c.base+len(c.appended))
		lo, hi = min(lo, all), max(hi, all)
	}
	c.means[class] = [2]float64{lo, hi}
	return lo, hi
}

// ack folds one acked ingest batch into the ground truth. The single writer
// connection is sequential, so acks arrive in id order.
func (c *checker) ack(a ack, per int) (records int, err error) {
	if a.err != nil {
		return 0, fmt.Errorf("transport: %w", a.err)
	}
	if a.status != 200 {
		return 0, fmt.Errorf("status %d: %s", a.status, bytes.TrimSpace(a.body))
	}
	var ans ingestAnswer
	if err := decodeStrict(a.body, &ans); err != nil || ans.Base == nil || ans.Count == nil {
		return 0, fmt.Errorf("unparsable ack %q: %v", a.body, err)
	}
	if *ans.Base != len(c.truth) || *ans.Count != per {
		return 0, fmt.Errorf("ack base=%d count=%d, want base=%d count=%d", *ans.Base, *ans.Count, len(c.truth), per)
	}
	c.truth = append(c.truth, c.appended[a.batch*per:(a.batch+1)*per]...)
	return per, nil
}

// reply verifies one query answer and returns its label_calls. A non-nil
// error means the reply counts as failed (transport, status or shape); a
// wrong-but-well-formed answer is recorded as a problem instead.
func (c *checker) reply(r reply) (labelCalls int64, err error) {
	if err := r.failure(); err != nil {
		return 0, err
	}
	sh := c.pool[r.req.Shape]
	switch sh.Route {
	case routeAggregate:
		var a aggregateAnswer
		if err := decodeStrict(r.body, &a); err != nil || a.Estimate == nil || a.HalfWidth == nil || a.LabelCalls == nil || a.Degraded == nil {
			return 0, fmt.Errorf("unparsable aggregate answer %q: %v", r.body, err)
		}
		labelCalls = *a.LabelCalls
		// The estimator also stops, undegraded, once it has drawn as many
		// samples as there are records (tiny corpora only).
		if *a.HalfWidth > sh.Err && !*a.Degraded && labelCalls < int64(c.base) {
			c.problem("%v: half_width %g > err and not degraded", sh, *a.HalfWidth)
		}
		lo, hi := c.truthMeans(sh.Class)
		c.aggTotal++
		if *a.Estimate+*a.HalfWidth < lo || *a.Estimate-*a.HalfWidth > hi {
			c.aggMissed++
			c.missed[r.req.Shape] = true
		}
	case routeSelect:
		var a selectAnswer
		if err := decodeStrict(r.body, &a); err != nil || a.Returned == nil || a.Threshold == nil || a.LabelCalls == nil || a.Degraded == nil {
			return 0, fmt.Errorf("unparsable select answer %q: %v", r.body, err)
		}
		labelCalls = *a.LabelCalls
		if labelCalls > int64(sh.Budget) {
			c.problem("%v: label_calls %d over budget", sh, labelCalls)
		}
		if math.IsNaN(*a.Threshold) || *a.Returned < len(a.SampleIDs) {
			c.problem("%v: threshold %g, returned %d with %d sample ids", sh, *a.Threshold, *a.Returned, len(a.SampleIDs))
		}
	case routeLimit:
		var a limitAnswer
		if err := decodeStrict(r.body, &a); err != nil || a.LabelCalls == nil || a.Exhausted == nil || a.Cracked == nil || a.Degraded == nil {
			return 0, fmt.Errorf("unparsable limit answer %q: %v", r.body, err)
		}
		labelCalls = *a.LabelCalls
		if len(a.Found) != sh.K && !*a.Exhausted {
			c.problem("%v: found %d of %d and not exhausted", sh, len(a.Found), sh.K)
		}
		for _, id := range a.Found {
			if id < 0 || id >= len(c.truth) {
				c.problem("%v: found id %d outside the corpus", sh, id)
			} else if !sh.holds(c.truth[id]) {
				c.problem("%v: found id %d does not satisfy the predicate", sh, id)
			}
		}
	}
	if c.readOnly {
		if first, ok := c.firstBody[r.req.Shape]; !ok {
			c.firstBody[r.req.Shape] = r.body
		} else if !bytes.Equal(first, r.body) {
			c.problem("%v: repeated shape answered differently:\n    %s    %s", sh, first, r.body)
		}
	}
	return labelCalls, nil
}

// finish applies the whole-run rules and returns every problem found.
// Coverage (delta = 0.05): on a read-only workload each aggregate shape has
// one answer, and at most one shape may miss the truth; with ingest each
// answer is its own draw, and at most 5 % may miss.
func (c *checker) finish() []string {
	if c.readOnly {
		if len(c.missed) > 1 {
			c.problem("%d aggregate shapes miss the truth mean by more than half_width; delta=0.05 allows one", len(c.missed))
		}
	} else if c.aggMissed > max(1, c.aggTotal/20) {
		c.problem("%d of %d aggregate answers miss the truth mean by more than half_width", c.aggMissed, c.aggTotal)
	}
	return c.problems
}

// digest is SHA-256 over (shape, first answer) in pool order. On a read-only
// workload every repeat equals the first answer, so the digest is the same
// for every run of the same code at any seed.
func (c *checker) digest() string {
	h := sha256.New()
	for i, sh := range c.pool {
		fmt.Fprintf(h, "%v\n", sh)
		h.Write(c.firstBody[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}
