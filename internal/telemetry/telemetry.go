// Package telemetry is the repository's dependency-free observability
// layer: a typed metrics registry (atomic counters, float gauges, and
// fixed-bucket histograms with quantile readout) plus a lightweight span
// tracer (trace.go). cmd/tastiserve renders the registry as a Prometheus
// text-format /metrics endpoint; cmd/tastiquery and cmd/tastibench dump
// span trees with -trace-out.
//
// # Nil safety
//
// Every method on every type — Registry, Counter, Gauge, Histogram, Trace,
// Span — is a no-op on a nil receiver, and a nil *Registry hands out nil
// instruments. Instrumented code therefore never checks whether telemetry
// is enabled: it unconditionally calls c.Inc() or sp.End(), and a disabled
// registry costs exactly one branch per call. This is what lets the hot
// paths (the build's FPF sweep, label-store draws, query execution) stay
// instrumented without a build-tag or a config fork.
//
// # Determinism
//
// Instruments only record — they never feed back into computation — so
// enabling telemetry cannot perturb the index pipeline's bitwise
// worker-invariance guarantees (TestBuildTelemetryInvariant holds this).
//
// # Metric naming
//
// Metric names follow Prometheus conventions (snake_case, _total suffix on
// counters, base-unit _seconds on durations) and may carry a label set
// inline: Counter(`tasti_http_requests_total{route="/index"}`). Series with
// the same base name share one HELP/TYPE block in the rendered output. The
// full catalogue lives in docs/OBSERVABILITY.md.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry owns a process's metrics. Instruments are registered on first
// use and live for the registry's lifetime; handing out the same pointer
// for the same full name makes repeated Counter(name) calls cheap enough
// for request paths, while hot loops hold the returned handle. The series
// set is small and settles early, so the instrument tables are sync.Maps:
// looking up a registered name takes no lock, and concurrent requests never
// queue behind one another for a handle. A nil *Registry is the disabled
// state: it returns nil instruments, whose methods no-op.
type Registry struct {
	counters sync.Map // full name -> *Counter
	gauges   sync.Map // full name -> *Gauge
	hists    sync.Map // full name -> *Histogram

	mu        sync.Mutex
	helpByMet map[string]string // base name -> HELP text
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{helpByMet: make(map[string]string)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the monotonically-increasing counter registered under
// name (which may carry an inline label set). The same name always returns
// the same handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := r.counters.LoadOrStore(name, &Counter{name: name})
	return c.(*Counter)
}

// Gauge returns the float gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges.Load(name); ok {
		return g.(*Gauge)
	}
	g, _ := r.gauges.LoadOrStore(name, &Gauge{name: name})
	return g.(*Gauge)
}

// Histogram returns the fixed-bucket histogram registered under name.
// buckets are ascending upper bounds; a +Inf bucket is implicit. buckets is
// only consulted on first registration — later calls with the same name
// return the existing histogram regardless. A nil or empty buckets slice
// selects DefLatencyBuckets.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists.Load(name); ok {
		return h.(*Histogram)
	}
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	h, _ := r.hists.LoadOrStore(name, &Histogram{
		name:   name,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	})
	return h.(*Histogram)
}

// Help attaches HELP text to a base metric name (the name with any label
// set stripped); it renders once per base name in the Prometheus output.
func (r *Registry) Help(base, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helpByMet[base] = help
}

// DefLatencyBuckets spans 100µs to 30s, roughly logarithmically — wide
// enough for both in-process phases and simulated-labeler waits.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Counter is a monotonically-increasing atomic counter. The zero value is
// usable; a nil *Counter no-ops.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge. The zero value is usable; a nil *Gauge
// no-ops.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (which may be negative) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf bucket
// at the end. Buckets are fixed at registration, so Observe is two atomic
// adds plus a binary search over a handful of bounds — cheap enough for
// per-request and per-phase use (not for per-vector inner loops; those
// carry counters instead). A nil *Histogram no-ops.
type Histogram struct {
	name   string
	bounds []float64      // ascending upper bounds, +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile reads the q-quantile (q in [0,1]) from the bucket counts,
// interpolating linearly within the bucket the rank falls in. The answer is
// exact to bucket resolution: it never misattributes an observation to the
// wrong bucket, but positions within a bucket are assumed uniform. Values
// in the +Inf bucket report the largest finite bound. Returns NaN with no
// observations or on a nil receiver.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) { // +Inf bucket: clamp to last finite bound
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// splitName separates an inline label set from a full metric name:
// `m{a="b"}` -> (`m`, `a="b"`). Names without labels return ("m", "").
func splitName(full string) (base, labels string) {
	i := strings.IndexByte(full, '{')
	if i < 0 {
		return full, ""
	}
	return full[:i], strings.TrimSuffix(full[i+1:], "}")
}

// joinLabels renders a label-set body (without braces) merged with an
// extra label, as `{a="b",le="0.5"}`, or "" when both are empty.
func joinLabels(body, extra string) string {
	switch {
	case body == "" && extra == "":
		return ""
	case body == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + body + "}"
	default:
		return "{" + body + "," + extra + "}"
	}
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series is one rendered time series, grouped under its base name.
type series struct {
	labels string
	lines  []string
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4): one HELP/TYPE block per base
// name, series sorted by label set, histograms expanded into cumulative
// _bucket/_sum/_count lines. The snapshot is not atomic across instruments
// — each value is read once — which is the standard contract for a scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type family struct {
		typ    string
		series []series
	}
	fams := make(map[string]*family)
	add := func(base, typ string, s series) {
		f, ok := fams[base]
		if !ok {
			f = &family{typ: typ}
			fams[base] = f
		}
		f.series = append(f.series, s)
	}

	var counters []*Counter
	r.counters.Range(func(_, c any) bool {
		counters = append(counters, c.(*Counter))
		return true
	})
	var gauges []*Gauge
	r.gauges.Range(func(_, g any) bool {
		gauges = append(gauges, g.(*Gauge))
		return true
	})
	var hists []*Histogram
	r.hists.Range(func(_, h any) bool {
		hists = append(hists, h.(*Histogram))
		return true
	})
	r.mu.Lock()
	help := make(map[string]string, len(r.helpByMet))
	for k, v := range r.helpByMet {
		help[k] = v
	}
	r.mu.Unlock()

	for _, c := range counters {
		base, labels := splitName(c.name)
		add(base, "counter", series{labels: labels, lines: []string{
			base + joinLabels(labels, "") + " " + strconv.FormatInt(c.Value(), 10),
		}})
	}
	for _, g := range gauges {
		base, labels := splitName(g.name)
		add(base, "gauge", series{labels: labels, lines: []string{
			base + joinLabels(labels, "") + " " + formatFloat(g.Value()),
		}})
	}
	for _, h := range hists {
		base, labels := splitName(h.name)
		lines := make([]string, 0, len(h.bounds)+3)
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			lines = append(lines, base+"_bucket"+joinLabels(labels, `le="`+formatFloat(bound)+`"`)+" "+strconv.FormatInt(cum, 10))
		}
		cum += h.counts[len(h.bounds)].Load()
		lines = append(lines,
			base+"_bucket"+joinLabels(labels, `le="+Inf"`)+" "+strconv.FormatInt(cum, 10),
			base+"_sum"+joinLabels(labels, "")+" "+formatFloat(h.Sum()),
			base+"_count"+joinLabels(labels, "")+" "+strconv.FormatInt(h.Count(), 10),
		)
		add(base, "histogram", series{labels: labels, lines: lines})
	}

	bases := make([]string, 0, len(fams))
	for base := range fams {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	var b strings.Builder
	for _, base := range bases {
		f := fams[base]
		if text, ok := help[base]; ok {
			fmt.Fprintf(&b, "# HELP %s %s\n", base, text)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", base, f.typ)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			for _, line := range s.lines {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
