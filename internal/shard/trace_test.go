package shard_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// TestScatterSpanLinkage pins the trace shape of the scatter-gather: one
// child span per shard, correctly parented, named shard/<i> in shard order,
// and each fully contained in the parent's wall time (so the Summary's
// percent-of-parent is meaningful).
func TestScatterSpanLinkage(t *testing.T) {
	const shards = 4
	ix, _ := buildIndex(t, 400, 50)
	x, err := shard.Split(ix, shards)
	if err != nil {
		t.Fatal(err)
	}
	score := core.CountScore("car")

	tr := telemetry.NewTrace("query/aggregate")
	tr.SetID(telemetry.NewTraceID())
	sp := tr.Root().Child("propagate")
	got, err := x.Pin().PropagateK(score, x.K(), sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	tr.Finish()

	kids := sp.Children()
	if len(kids) != shards {
		t.Fatalf("propagate span has %d children, want %d (one per shard)", len(kids), shards)
	}
	names := map[string]bool{}
	for _, c := range kids {
		names[c.Name()] = true
		if c.Parent() != sp {
			t.Errorf("span %s parented to %q, want propagate", c.Name(), c.Parent().Name())
		}
		if c.Duration() > sp.Duration() {
			t.Errorf("span %s duration %v exceeds parent %v", c.Name(), c.Duration(), sp.Duration())
		}
	}
	for s := 0; s < shards; s++ {
		if !names[fmt.Sprintf("shard/%d", s)] {
			t.Errorf("missing child span shard/%d (have %v)", s, names)
		}
	}

	// The per-shard record counts ride along as attributes and sum to the corpus.
	snap := tr.SnapshotTree()
	total := 0
	for _, c := range snap.Children[0].Children {
		if len(c.Attrs) == 0 || c.Attrs[0].Key != "records" {
			t.Fatalf("shard span %s missing records attr: %+v", c.Name, c.Attrs)
		}
		var n int
		fmt.Sscanf(c.Attrs[0].Value, "%d", &n)
		total += n
	}
	if total != x.NumRecords() {
		t.Errorf("shard span records sum to %d, want %d", total, x.NumRecords())
	}

	// Threading a span must not change a single bit of the result.
	want, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "PropagateK", got, want)

	// The other two scatter paths trace the same way.
	sp2 := tr.Root().Child("nearest")
	scores, dists, err := x.Pin().PropagateNearest(score, sp2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp2.Children()) != shards {
		t.Errorf("nearest span has %d children, want %d", len(sp2.Children()), shards)
	}
	sp3 := tr.Root().Child("order")
	x.Pin().LimitCursor(scores, dists, sp3)
	if len(sp3.Children()) != shards {
		t.Errorf("order span has %d children, want %d", len(sp3.Children()), shards)
	}

	// And a nil span is the untraced path.
	if _, err := x.Pin().PropagateK(score, x.K(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestHealthStats(t *testing.T) {
	ix, _ := buildIndex(t, 400, 50)
	x, err := shard.Split(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	qs := x.Pin().RadiusQuantiles([]float64{0.5, 0.9, 0.99})
	for i := range qs {
		if math.IsNaN(qs[i]) || qs[i] < 0 {
			t.Fatalf("radius quantile %d = %v", i, qs[i])
		}
		if i > 0 && qs[i] < qs[i-1] {
			t.Errorf("radius quantiles not monotone: %v", qs)
		}
	}
}
