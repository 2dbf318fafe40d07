package ingest

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// DriftDetector watches the stream for embedding drift: when newly appended
// records land systematically farther from their nearest representative than
// the build-time corpus did, the representative set has stopped covering the
// stream and propagation quality decays (the paper's FPF coverage argument
// in reverse). It keeps a ring of the last W appended records'
// nearest-representative distances — numbers the append scan computes anyway
// — and compares their mean to a baseline captured at build (or refresh)
// time. Ratio > threshold with a full window trips Triggered, which the
// server answers with a background index refresh.
//
// Observe is called from the single ingest apply path; Ratio/Triggered are
// lock-free reads safe from any goroutine (metrics scrapes, the refresh
// monitor).
type DriftDetector struct {
	threshold float64

	mu     sync.Mutex
	window []float64
	count  int // total observations, saturating at len(window)
	next   int // ring cursor
	sum    float64

	baselineBits atomic.Uint64
	ratioBits    atomic.Uint64

	gRatio    *telemetry.Gauge
	gBaseline *telemetry.Gauge
}

// NewDriftDetector builds a detector with the given ring size and trigger
// threshold (ratio of recent mean distance to baseline; e.g. 1.5 means
// "recent appends are 50% farther from the representatives").
func NewDriftDetector(window int, threshold float64, reg *telemetry.Registry) *DriftDetector {
	if window < 1 {
		window = 1
	}
	d := &DriftDetector{
		threshold: threshold,
		window:    make([]float64, window),
	}
	if reg != nil {
		d.gRatio = reg.Gauge("tasti_drift_ratio")
		d.gBaseline = reg.Gauge("tasti_drift_baseline_distance")
	}
	return d
}

// Reset installs a new baseline (the index's mean nearest-representative
// distance) and clears the window — called at build, after replay, and
// after every refresh.
func (d *DriftDetector) Reset(baseline float64) {
	d.mu.Lock()
	d.count, d.next, d.sum = 0, 0, 0
	d.mu.Unlock()
	d.baselineBits.Store(math.Float64bits(baseline))
	d.ratioBits.Store(0)
	d.gBaseline.Set(baseline)
	d.gRatio.Set(0)
}

// Baseline returns the current baseline distance.
func (d *DriftDetector) Baseline() float64 {
	return math.Float64frombits(d.baselineBits.Load())
}

// Observe folds one appended record's nearest-representative distance into
// the window and refreshes the published ratio.
func (d *DriftDetector) Observe(dist float64) {
	d.mu.Lock()
	if d.count == len(d.window) {
		d.sum -= d.window[d.next]
	} else {
		d.count++
	}
	d.window[d.next] = dist
	d.sum += dist
	d.next = (d.next + 1) % len(d.window)
	mean := d.sum / float64(d.count)
	d.mu.Unlock()

	ratio := 0.0
	if b := d.Baseline(); b > 0 {
		ratio = mean / b
	}
	d.ratioBits.Store(math.Float64bits(ratio))
	d.gRatio.Set(ratio)
}

// Ratio returns recent-mean / baseline (0 until anything is observed, or
// when the baseline is zero).
func (d *DriftDetector) Ratio() float64 {
	return math.Float64frombits(d.ratioBits.Load())
}

// Full reports whether the window has seen at least its size in
// observations since the last Reset.
func (d *DriftDetector) Full() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count == len(d.window)
}

// Triggered reports drift: a full window whose mean distance exceeds
// threshold x baseline. A partial window never triggers — a handful of
// outliers right after a reset is noise, not drift.
func (d *DriftDetector) Triggered() bool {
	return d.Full() && d.Ratio() > d.threshold
}
