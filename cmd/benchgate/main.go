// Command benchgate compares a benchmark report produced by
// `tastibench -bench-json` against a committed baseline and fails when any
// benchmark regressed beyond the allowed ratio. It is the CI tripwire for
// the index-construction and propagation hot paths: the default ratio is
// deliberately generous (3.0x) so shared, noisy CI machines do not flake,
// while order-of-magnitude regressions — a kernel falling off its fast
// path, an accidental per-record allocation — still fail the build.
//
// Usage:
//
//	tastibench -bench-json current.json
//	benchgate -baseline BENCH_36.json -current current.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// report mirrors the BenchReport JSON written by cmd/tastibench.
type report struct {
	GoVersion  string            `json:"go_version"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	Benchmarks map[string]result `json:"benchmarks"`
}

type result struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline report (required)")
		currentPath  = flag.String("current", "", "freshly measured report (required)")
		maxRatio     = flag.Float64("max-ratio", 3.0, "fail when current ns/op exceeds baseline ns/op by more than this factor")
		maxAllocs    = flag.Float64("max-alloc-ratio", 2.0, "fail when current allocs/op exceeds baseline allocs/op by more than this factor (allocation counts are deterministic, so this bound is tighter than the time bound)")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are required")
		os.Exit(2)
	}

	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		base := baseline.Benchmarks[name]
		cur, ok := current.Benchmarks[name]
		if !ok {
			fmt.Printf("FAIL %s: missing from current report\n", name)
			failed = true
			continue
		}
		timeRatio := ratio(cur.NsPerOp, base.NsPerOp)
		allocRatio := ratio(cur.AllocsPerOp, base.AllocsPerOp)
		status := "ok  "
		if timeRatio > *maxRatio || allocRatio > *maxAllocs {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %s: %d ns/op vs baseline %d (%.2fx, limit %.2fx); %d allocs/op vs %d (%.2fx, limit %.2fx)\n",
			status, name, cur.NsPerOp, base.NsPerOp, timeRatio, *maxRatio,
			cur.AllocsPerOp, base.AllocsPerOp, allocRatio, *maxAllocs)
	}
	if failed {
		os.Exit(1)
	}
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return &r, nil
}

// ratio returns cur/base, treating a non-positive baseline as 1 so a zero
// baseline (e.g. allocs/op of 0) only fails when current is also above the
// limit in absolute terms — any current > 0 against base 0 yields +Inf-like
// behavior via the explicit branch instead of dividing by zero.
func ratio(cur, base int64) float64 {
	if base <= 0 {
		if cur <= 0 {
			return 1
		}
		return float64(cur)
	}
	return float64(cur) / float64(base)
}
