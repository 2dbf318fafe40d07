package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"repro/tasti"
)

// The data are fixed: the benchmark's -seed orders the requests, and draws
// neither the corpus nor the ingested records. Either would move every number
// with the data, and runs at different seeds could no longer be compared: the
// car/err=0.05 aggregate needs 4297 samples at corpus seed 1 and 5221 at seed
// 2 (30 % more latency through the quadratic estimator), and which appended
// records a crack promotes moved the same aggregate from 137 to 195 ms
// between two ingest seeds.
const (
	corpusName = "taipei"
	corpusSeed = 1
	ingestSeed = corpusSeed + 99
)

// shape is one distinct query: the route plus the body fields that route
// reads. The server seeds its sampling from its own -seed alone, so a shape
// fully determines its answer on a read-only workload.
type shape struct {
	Route string `json:"-"`
	// Weight is how often the shape appears in a round (0 means once).
	Weight int     `json:"-"`
	Class  string  `json:"class"`
	Count  int     `json:"count,omitempty"`
	Err    float64 `json:"err,omitempty"`
	Budget int     `json:"budget,omitempty"`
	Recall float64 `json:"recall,omitempty"`
	K      int     `json:"k,omitempty"`
	Crack  bool    `json:"crack,omitempty"`
}

const (
	routeAggregate = "aggregate"
	routeSelect    = "select"
	routeLimit     = "limit"
)

var queryRoutes = []string{routeAggregate, routeSelect, routeLimit}

func (s shape) String() string {
	switch s.Route {
	case routeAggregate:
		return fmt.Sprintf("aggregate(%s err=%g)", s.Class, s.Err)
	case routeSelect:
		return fmt.Sprintf("select(%s>=%d budget=%d recall=%g)", s.Class, s.Count, s.Budget, s.Recall)
	default:
		return fmt.Sprintf("limit(%s>=%d k=%d)", s.Class, s.Count, s.K)
	}
}

func (s shape) body() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return b
}

// holds reports whether ann satisfies the shape's predicate, mirroring
// tastiserve's video-corpus spec (count of Class >= Count).
func (s shape) holds(ann tasti.Annotation) bool {
	return ann.(tasti.VideoAnnotation).Count(s.Class) >= max(s.Count, 1)
}

// aggregates returns car and bus aggregates at each error target; the first
// (car at the tightest target, the costliest) gets weight w.
func aggregates(w int, errs ...float64) []shape {
	var out []shape
	for _, class := range []string{"car", "bus"} {
		for _, e := range errs {
			out = append(out, shape{Route: routeAggregate, Class: class, Err: e})
		}
	}
	out[0].Weight = w
	return out
}

// A round's composition decides where the percentiles fall. With every
// shape sent equally often, p50 of an even number of shapes and p95 of twenty
// sit on the edge between two shapes with different costs, and flip between
// them from run to run. So each route has an odd number of entries per round
// (its p50 is the middle entry), and the costliest shape is sent twice (about
// 9 % of a round, so the all-request p95 and its route's p90 fall inside it,
// not beside it).

// mixedPool is one round of the mixed workloads: 9 aggregates, 7 selects and
// 7 limits (39/30/30 by count). The doubled shape is car/err=0.05, ~4.3k
// samples through the quadratic estimator.
var mixedPool = append(aggregates(2, 0.05, 0.06, 0.08, 0.1),
	shape{Route: routeSelect, Class: "car", Count: 1, Budget: 300, Recall: 0.8},
	shape{Route: routeSelect, Class: "car", Count: 2, Budget: 500, Recall: 0.9},
	shape{Route: routeSelect, Class: "car", Count: 1, Budget: 600, Recall: 0.9},
	shape{Route: routeSelect, Class: "car", Count: 3, Budget: 700, Recall: 0.95},
	shape{Route: routeSelect, Class: "bus", Count: 1, Budget: 400, Recall: 0.9},
	shape{Route: routeSelect, Class: "bus", Count: 1, Budget: 1000, Recall: 0.95},
	shape{Route: routeSelect, Class: "bus", Count: 2, Budget: 850, Recall: 0.8},
	shape{Route: routeLimit, Class: "car", Count: 1, K: 5},
	shape{Route: routeLimit, Class: "car", Count: 2, K: 12},
	shape{Route: routeLimit, Class: "car", Count: 1, K: 16},
	shape{Route: routeLimit, Class: "car", Count: 3, K: 24},
	shape{Route: routeLimit, Class: "bus", Count: 1, K: 8},
	shape{Route: routeLimit, Class: "bus", Count: 1, K: 20},
	shape{Route: routeLimit, Class: "bus", Count: 2, K: 16},
)

// lightPool keeps every sampler small (loose error targets, budgets <= 200,
// k <= 10) so the O(n) per-request layers dominate on the large corpus: 7
// aggregates, 7 selects and 8 limits. The doubled shape is the rare-predicate
// limit, the costliest request of the round.
var lightPool = append(aggregates(1, 0.15, 0.2, 0.25),
	shape{Route: routeAggregate, Class: "car", Err: 0.3},
	shape{Route: routeSelect, Class: "car", Count: 1, Budget: 100, Recall: 0.8},
	shape{Route: routeSelect, Class: "car", Count: 2, Budget: 150, Recall: 0.9},
	shape{Route: routeSelect, Class: "car", Count: 1, Budget: 180, Recall: 0.9},
	shape{Route: routeSelect, Class: "car", Count: 3, Budget: 200, Recall: 0.95},
	shape{Route: routeSelect, Class: "bus", Count: 1, Budget: 120, Recall: 0.9},
	shape{Route: routeSelect, Class: "bus", Count: 1, Budget: 200, Recall: 0.95},
	shape{Route: routeSelect, Class: "bus", Count: 2, Budget: 160, Recall: 0.8},
	shape{Route: routeLimit, Class: "car", Count: 1, K: 5},
	shape{Route: routeLimit, Class: "car", Count: 2, K: 8},
	shape{Route: routeLimit, Class: "car", Count: 3, K: 10},
	shape{Route: routeLimit, Class: "bus", Count: 1, K: 6},
	shape{Route: routeLimit, Class: "bus", Count: 1, K: 10},
	shape{Route: routeLimit, Class: "bus", Count: 2, K: 7, Weight: 2},
)

// workload is one traffic mix against one server configuration.
type workload struct {
	Name string
	Why  string
	// big selects the corpus above the 256 MiB distance-cache gate.
	big bool
	// conns is the number of closed-loop reader connections.
	conns int
	pool  []shape
	// writer adds an open-loop POST /ingest connection beside the reader and
	// makes one limit request per round crack. Without it the writes run as a
	// closed-loop epilogue after the read window, so every workload leaves a
	// WAL for the restart to replay and passes the durability check.
	writer bool
}

var workloads = []workload{
	{
		Name:  "mixed_c1",
		Why:   "service time of every query type with no queueing; estimator and SUPG sampling dominate, propagation is small",
		conns: 1, pool: mixedPool,
	},
	{
		Name:  "mixed_c2",
		Why:   "the mixed_c1 schedule on 2 connections: qps over mixed_c1 is the scaling the global semaphore pins at 1, latency over mixed_c1 is lock wait",
		conns: 2, pool: mixedPool,
	},
	{
		Name:  "bigcorpus_light_c1",
		Why:   "60k records above the distance-cache gate with small samplers: propagate, limit order, SUPG's proxy pass and HTTP fixed cost dominate",
		big:   true,
		conns: 1, pool: lightPool,
	},
	{
		Name:  "ingest_crack_c2",
		Why:   "open-loop ingest beside a closed-loop reader that cracks: WAL fsync on the ack path, append and crack under the query lock, restart replays the WAL",
		conns: 1, pool: mixedPool, writer: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes the corpora and the fixed phases. full is the benchmark; smoke
// exists so bench_test.go can exercise every code path in seconds, and its
// numbers are not measurements.
type scale struct {
	name           string
	records, reps  int // 20k workloads
	bigRecords     int
	bigReps        int
	batchRecords   int     // records per POST /ingest
	writerRate     float64 // open-loop batches per second
	epilogueWrites int     // closed-loop batches after a read-only window
	replayRequests int     // requests replayed in-process by the traced run
	probeBatches   int     // WAL / append probe batches
	// floors turns on the minimum-sample rule for percentiles.
	floors bool
}

var scales = map[string]scale{
	"full": {
		name: "full", records: 20000, reps: 800, bigRecords: 60000, bigReps: 1200,
		batchRecords: 16, writerRate: 10, epilogueWrites: 150,
		replayRequests: 400, probeBatches: 100, floors: true,
	},
	"smoke": {
		name: "smoke", records: 1500, reps: 60, bigRecords: 3000, bigReps: 90,
		batchRecords: 16, writerRate: 10, epilogueWrites: 10,
		replayRequests: 40, probeBatches: 5,
	},
}

func (sc scale) corpus(w workload) (records, reps int) {
	if w.big {
		return sc.bigRecords, sc.bigReps
	}
	return sc.records, sc.reps
}

// filterPool drops shapes whose predicate has too few positives in the
// ground truth: a limit needs 5*k so it never scans to exhaustion (an
// exhausted crack:true limit labels and cracks the whole corpus), a select
// needs one (with none the server's +-Inf threshold fails JSON encoding and
// the 200 has an empty body — see README "Defects found while sizing").
func filterPool(pool []shape, truth []tasti.Annotation) []shape {
	var out []shape
	for _, s := range pool {
		need := 0
		switch s.Route {
		case routeSelect:
			need = 1
		case routeLimit:
			need = 5 * s.K
		}
		pos := 0
		for _, ann := range truth {
			if pos >= need {
				break
			}
			if s.holds(ann) {
				pos++
			}
		}
		if pos >= need {
			out = append(out, s)
		}
	}
	return out
}

// request is one scheduled query: pool[Shape], possibly with crack:true.
type request struct {
	Seq   int
	Shape int
	Crack bool
	Body  []byte
}

// schedule deals requests in rounds. The first len(pool) requests are the
// warm-up pass: every distinct shape once, in a seeded order. After it every
// round is the pool's weighted entries in a seeded order, so any window holds
// the designed mix however long it runs. With crack set, one limit request
// per round carries crack:true, the limit shapes taking turns — a fixed
// rotation rather than a coin per request, because which shapes have cracked
// decides how many samples the aggregates then need, and a seeded choice
// moved their latency by 40 % between seeds. Safe for concurrent use; the
// k-th request dealt is the same on every run with the same seed, whichever
// connection takes it.
type schedule struct {
	pool    []shape
	entries []int    // pool indexes, each repeated by its weight
	limits  []int    // pool indexes of the limit shapes
	bodies  [][]byte // marshalled once per shape
	crack   bool

	mu     sync.Mutex
	rng    *rand.Rand
	round  []int
	rounds int // dealt so far, the warm-up pass included
	cracks int // pool index that cracks in this round, -1 for none
	seq    int
}

func newSchedule(pool []shape, seed int64, crack bool) *schedule {
	s := &schedule{pool: pool, crack: crack, cracks: -1, rng: rand.New(rand.NewSource(seed))}
	for i, sh := range pool {
		s.bodies = append(s.bodies, sh.body())
		for w := 0; w < max(sh.Weight, 1); w++ {
			s.entries = append(s.entries, i)
		}
		if sh.Route == routeLimit {
			s.limits = append(s.limits, i)
		}
	}
	return s
}

func (s *schedule) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.round) == 0 {
		if s.rounds == 0 {
			s.round = s.rng.Perm(len(s.pool))
		} else {
			s.round = make([]int, len(s.entries))
			for i, j := range s.rng.Perm(len(s.entries)) {
				s.round[i] = s.entries[j]
			}
			if s.crack {
				s.cracks = s.limits[(s.rounds-1)%len(s.limits)]
			}
		}
		s.rounds++
	}
	r := request{Seq: s.seq, Shape: s.round[0], Body: s.bodies[s.round[0]]}
	s.round = s.round[1:]
	s.seq++
	if r.Shape == s.cracks {
		sh := s.pool[r.Shape]
		sh.Crack = true
		r.Crack, r.Body = true, sh.body()
		s.cracks = -1
	}
	return r
}
