package supg

import (
	"context"
	"fmt"
	"math"
	"sync"
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

// selectShape is one select request of the served benchmark's mixed round:
// the predicate count(class) >= count, the budget and the recall target.
type selectShape struct {
	class  string
	count  int
	budget int
	recall float64
}

func (s selectShape) String() string {
	return fmt.Sprintf("%s%d_b%d_r%v", s.class, s.count, s.budget, s.recall)
}

// selectShapes are the seven selects of a mixed round.
var selectShapes = []selectShape{
	{"car", 1, 300, 0.8}, {"car", 2, 500, 0.9}, {"car", 1, 600, 0.9}, {"car", 3, 700, 0.95},
	{"bus", 1, 400, 0.9}, {"bus", 1, 1000, 0.95}, {"bus", 2, 850, 0.8},
}

// taipei is the served corpus: 20 000 taipei records, generated once.
var taipei = sync.OnceValues(func() (*dataset.Dataset, error) { return dataset.Generate("taipei", 20000, 1) })

// taipeiTruth reports which records of the served corpus hold at least count
// objects of class.
func taipeiTruth(tb testing.TB, class string, count int) []bool {
	tb.Helper()
	ds, err := taipei()
	if err != nil {
		tb.Fatal(err)
	}
	truth := make([]bool, ds.Len())
	for i, ann := range ds.Truth {
		truth[i] = ann.(dataset.VideoAnnotation).Count(class) >= count
	}
	return truth
}

// knownMatches is a column's exact scores when it knows every record's: the
// match as 1 or 0.
func knownMatches(truth []bool) []atomic.Uint64 {
	cells := make([]atomic.Uint64, len(truth))
	for i, m := range truth {
		v := 0.0
		if m {
			v = 1
		}
		cells[i].Store(math.Float64bits(v) ^ unknownBits)
	}
	return cells
}

// BenchmarkSelectServed is a served select over a 20 000-record corpus
// (taipei) whose every exact score the column knows, so no draw reaches a
// labeler, over a design built once. warm and cold time the draws alone
// (car ≥ 1, budget 1000) in ns/draw; cold evicts L2 between queries, off the
// timer. select/<shape> times the whole select at each of the mixed round's
// seven shapes: the draws, the threshold search, the settled selection and
// its Len, over a design whose sorted copy exists, as a served column's does
// after its first select.
func BenchmarkSelectServed(b *testing.B) {
	truth := taipeiTruth(b, "car", 1)
	cells := knownMatches(truth)
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
	for _, sh := range selectShapes {
		truth := taipeiTruth(b, sh.class, sh.count)
		cells := knownMatches(truth)
		d := NewDesign(goodProxy(truth, 0.15, 2))
		d.sortedProxy()
		b.Run("select/"+sh.String(), func(b *testing.B) {
			src := &servedMatches{cells: cells, done: ctx.Done()}
			opts := Options{Budget: sh.budget, Target: sh.recall, Delta: 0.05}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Seed = int64(i % 8)
				sel, err := d.RecallTargetSelection(opts, src)
				if err != nil {
					b.Fatal(err)
				}
				selectedLen = sel.Len()
			}
		})
	}
}

// selectedLen keeps the benchmarked count live.
var selectedLen int
