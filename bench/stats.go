package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// metric is one reported number. N is the sample count behind a percentile
// (0 for everything else); it is printed, not serialised.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// minSamples is the fewest samples a percentile may be read from: ten beyond
// it. The harness refuses a tail it cannot support rather than print a
// number that is one slow request.
func minSamples(p float64) int {
	if p <= 0.5 {
		return 20
	}
	return int(math.Round(10 / (1 - p)))
}

// setPercentile records the p-quantile of xs under name, enforcing the
// minimum-sample rule when floors is set.
func (m metrics) setPercentile(name string, xs []float64, p float64, unit string, floors bool) error {
	if len(xs) == 0 {
		return fmt.Errorf("%s: no samples", name)
	}
	if need := minSamples(p); floors && len(xs) < need {
		return fmt.Errorf("%s: p%g needs %d samples, the window produced %d", name, p*100, need, len(xs))
	}
	m[name] = metric{Value: stats.Quantile(xs, p), Unit: unit, N: len(xs)}
	return nil
}

// iqm is the interquartile mean: the mean of the middle half of xs (sorted
// in place). It ignores the tails like the median does, but moves smoothly
// where the median would jump between two query shapes of different cost.
func iqm(xs []float64) float64 {
	sort.Float64s(xs)
	return stats.Mean(xs[len(xs)/4 : len(xs)-len(xs)/4])
}

// setIQM records the interquartile mean of xs under name.
func (m metrics) setIQM(name string, xs []float64, unit string) error {
	if len(xs) == 0 {
		return fmt.Errorf("%s: no samples", name)
	}
	m[name] = metric{Value: iqm(xs), Unit: unit, N: len(xs)}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// print writes the metrics in the order of names, one per line, with unit
// and — for percentiles — the sample count.
func (m metrics) print(w io.Writer, names []string) {
	for _, name := range names {
		v, ok := m[name]
		if !ok {
			continue
		}
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %s%s\n", name, v.Value, v.Unit, n)
	}
}

// printRepeats summarises R runs of one workload: median, min, max and the
// relative range (max-min)/median per metric — the noise figure the bounds
// in BENCHMARK.json are calibrated from. It returns the medians.
func printRepeats(w io.Writer, runs []metrics, names []string) metrics {
	med := metrics{}
	fmt.Fprintf(w, "  %-40s %12s %12s %12s %8s\n", "metric", "median", "min", "max", "range")
	for _, name := range names {
		var xs []float64
		for _, r := range runs {
			if v, ok := r[name]; ok {
				xs = append(xs, v.Value)
			}
		}
		if len(xs) == 0 {
			continue
		}
		m, lo, hi := stats.Quantile(xs, 0.5), slices.Min(xs), slices.Max(xs)
		rel := 0.0
		if m != 0 {
			rel = (hi - lo) / math.Abs(m)
		}
		unit := runs[0][name].Unit
		med[name] = metric{Value: m, Unit: unit, N: runs[0][name].N}
		fmt.Fprintf(w, "  %-40s %12.4f %12.4f %12.4f %7.1f%% %s\n", name, m, lo, hi, rel*100, unit)
	}
	return med
}

func rule(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s %s\n", title, strings.Repeat("=", max(0, 72-len(title))))
}
