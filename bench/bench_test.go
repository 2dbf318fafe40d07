package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// manifest is BENCHMARK.json as far as the harness must agree with it.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesHarness pins BENCHMARK.json to the code: the same
// workloads with the same reasons, and the same metric names in both lists.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the harness %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
	}
	same := func(kind string, listed []manifestMetric, names []string) {
		if len(listed) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(listed), len(names))
			return
		}
		for i, name := range names {
			if listed[i].Name != name {
				t.Errorf("%s metric %d: BENCHMARK.json says %q, the harness %q", kind, i, listed[i].Name, name)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEndNames)
	same("per_layer", m.PerLayer, perLayerNames)
}

func TestScheduleIsSeededAndWeighted(t *testing.T) {
	deal := func(seed int64, n int) []request {
		s := newSchedule(mixedPool, seed, true)
		out := make([]request, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	entries := 0
	for _, sh := range mixedPool {
		entries += max(sh.Weight, 1)
	}
	n := len(mixedPool) + 3*entries
	a, b := deal(7, n), deal(7, n)
	for i := range a {
		if a[i].Shape != b[i].Shape || a[i].Crack != b[i].Crack {
			t.Fatalf("request %d differs between two schedules with the same seed", i)
		}
	}
	c := deal(8, n)
	differs := false
	for i := range a {
		differs = differs || a[i].Shape != c[i].Shape
	}
	if !differs {
		t.Error("seeds 7 and 8 deal the same order")
	}
	seen := map[int]int{}
	for _, r := range a[:len(mixedPool)] {
		seen[r.Shape]++
		if r.Crack {
			t.Errorf("warm-up request %d cracks", r.Seq)
		}
	}
	if len(seen) != len(mixedPool) {
		t.Errorf("warm-up pass covers %d of %d shapes", len(seen), len(mixedPool))
	}
	cracked := map[int]bool{}
	for r := 0; r < 3; r++ {
		round, cracks := map[int]int{}, 0
		for _, req := range a[len(mixedPool)+r*entries : len(mixedPool)+(r+1)*entries] {
			round[req.Shape]++
			if req.Crack {
				cracks++
				cracked[req.Shape] = true
				if mixedPool[req.Shape].Route != routeLimit {
					t.Errorf("%v cracks", mixedPool[req.Shape])
				}
			}
		}
		for i, sh := range mixedPool {
			if round[i] != max(sh.Weight, 1) {
				t.Errorf("round %d: %v appears %d times, want %d", r, sh, round[i], max(sh.Weight, 1))
			}
		}
		if cracks != 1 {
			t.Errorf("round %d has %d cracking requests, want 1", r, cracks)
		}
	}
	if len(cracked) != 3 {
		t.Errorf("3 rounds cracked %d distinct limit shapes, want 3 (the shapes take turns)", len(cracked))
	}
}

func TestPercentileFloors(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	m := metrics{}
	if err := m.setPercentile("p90", xs, 0.9, "ms", true); err != nil || math.Abs(m["p90"].Value-135.1) > 1e-9 || m["p90"].N != 150 {
		t.Errorf("p90 of 1..150 = %+v, %v", m["p90"], err)
	}
	if err := m.setPercentile("p95", xs, 0.95, "ms", true); err == nil {
		t.Error("p95 accepted 150 samples; it needs 200")
	}
	if err := m.setPercentile("p99", xs, 0.99, "ms", false); err != nil {
		t.Errorf("floors off: %v", err)
	}
}

// TestSmoke runs every workload traced at smoke scale — cold child, restart,
// traced child, layer replay, probes — and checks that every metric
// BENCHMARK.json names comes out finite with its unit, every answer was
// correct, and no child outlives its run. It costs one cold index build per
// workload (tastiserve always trains for ~8 s), so it is skipped under
// -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("four cold tastiserve builds; skipped under -short")
	}
	m := readManifest(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(ctx, runConfig{
				root: root, bin: bin, w: w, sc: scales["smoke"], seed: 3,
				seconds: time.Second, trace: true, out: filepath.Join(t.TempDir(), "spans.jsonl"), log: io.Discard,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Errorf("check failed: %s", p)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d requests failed", res.failed, res.attempted)
			}
			check := func(kind string, got metrics, want []manifestMetric) {
				for _, mm := range want {
					v, ok := got[mm.Name]
					switch {
					case !ok:
						t.Errorf("%s metric %s is missing", kind, mm.Name)
					case v.Unit != mm.Unit:
						t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, mm.Name, v.Unit, mm.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s metric %s is %v", kind, mm.Name, v.Value)
					}
				}
				if len(got) != len(want) {
					t.Errorf("%d %s metrics reported, BENCHMARK.json lists %d", len(got), kind, len(want))
				}
			}
			check("end_to_end", res.endToEnd, m.EndToEnd)
			check("per_layer", res.perLayer, m.PerLayer)
		})
	}
	left, err := filepath.Glob(filepath.Join(root, buildDir, "run-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("run dirs left behind: %v %v", left, err)
	}
	// Any process still running the binary this test built is an orphan (or
	// another harness run sharing the checkout: do not run both at once).
	exes, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, exe := range exes {
		if target, err := os.Readlink(exe); err == nil && target == bin {
			t.Errorf("%s is still running %s", filepath.Dir(exe), bin)
		}
	}
}
