package supg

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

func BenchmarkRecallTarget(b *testing.B) {
	ds, lab, pred, truth := selectionEnv(b, 4000)
	scores := goodProxy(truth, 0.15, 2)
	opts := Options{Budget: 300, Target: 0.9, Delta: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := RecallTarget(opts, ds.Len(), scores, pred, lab); err != nil {
			b.Fatal(err)
		}
	}
}

// servedMatches is the shape of a served request's match source over a column
// whose every exact score is known: one atomic cell per record holding the
// score's bits XOR a reserved NaN pattern (0 = unknown), and a context check
// and a hit tally on each draw consumed.
type servedMatches struct {
	cells []atomic.Uint64
	done  <-chan struct{}
	hits  int64
}

const unknownBits = 0x7ff8_7a57_1c01_0001

func (s *servedMatches) Peek(ids []int, match, known []bool) {
	for i, id := range ids {
		stored := s.cells[id].Load()
		match[i], known[i] = math.Float64frombits(stored^unknownBits) != 0, stored != 0
	}
}

func (s *servedMatches) Match(id int, match, known bool) (bool, error) {
	if !known {
		return false, fmt.Errorf("record %d has no known match", id)
	}
	select {
	case <-s.done:
		return false, context.Canceled
	default:
	}
	s.hits++
	return match, nil
}

// evictL2 writes a buffer four times the 2 MiB per-core L2 of the reference
// host, so the next query starts with its column out of L2, as a served
// select does after the requests between it and the last one.
func evictL2() {
	for i := range evictBuf {
		evictBuf[i]++
	}
}

var evictBuf = make([]uint64, 8<<20/8)

// BenchmarkSelectServed is a served select's draws: a 20 000-record corpus
// (taipei, car ≥ 1) whose every exact score the column knows, so no draw
// reaches a labeler, over a design built once, at budget 1000. The cold case
// evicts L2 between queries, off the timer. ns/draw is drawSample's time per
// draw: the threshold search after it is quadratic in the sampled positives
// and would drown the draws' cost (at this shape it is three quarters of the
// query).
func BenchmarkSelectServed(b *testing.B) {
	ds, err := dataset.Generate("taipei", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	truth := make([]bool, ds.Len())
	cells := make([]atomic.Uint64, ds.Len())
	for i, ann := range ds.Truth {
		truth[i] = ann.(dataset.VideoAnnotation).Count("car") >= 1
		v := 0.0
		if truth[i] {
			v = 1
		}
		cells[i].Store(math.Float64bits(v) ^ unknownBits)
	}
	d := NewDesign(goodProxy(truth, 0.15, 2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			src := &servedMatches{cells: cells, done: ctx.Done()}
			opts := Options{Budget: 1000, Target: 0.9, Delta: 0.05}
			var draws int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					evictL2()
					b.StartTimer()
				}
				opts.Seed = int64(i % 8) // a server seeds from a few constants
				s, err := d.drawSample(opts, src)
				if err != nil {
					b.Fatal(err)
				}
				draws += int64(len(s.ids))
				s.release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
		})
	}
}
