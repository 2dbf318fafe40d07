package triplet

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

func TestMineRandom(t *testing.T) {
	r := xrand.New(1)
	ids := MineRandom(r, 100, 20)
	if len(ids) != 20 {
		t.Fatalf("got %d ids", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= 100 || seen[id] {
			t.Fatalf("bad id %d", id)
		}
		seen[id] = true
	}
	if got := MineRandom(r, 5, 50); len(got) != 5 {
		t.Errorf("oversized request should clamp, got %d", len(got))
	}
}

func TestMineFPFDiversity(t *testing.T) {
	ds, err := dataset.Generate("night-street", 800, 2)
	if err != nil {
		t.Fatal(err)
	}
	pre := embed.NewPretrained(ds.FeatureDim(), 16, 3)
	emb := embed.AllPar(pre, ds, 0)

	ids := MineFPF(xrand.New(4), emb, 50)
	if len(ids) != 50 {
		t.Fatalf("got %d ids", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if MineFPF(xrand.New(4), vecmath.Matrix{}, 10) != nil {
		t.Error("empty embeddings should give nil")
	}
	if MineFPF(xrand.New(4), emb, 0) != nil {
		t.Error("zero budget should give nil")
	}
}

func TestBucketRecords(t *testing.T) {
	anns := []dataset.Annotation{
		dataset.TextAnnotation{Operator: "SELECT", NumPredicates: 1},
		dataset.TextAnnotation{Operator: "SELECT", NumPredicates: 1},
		dataset.TextAnnotation{Operator: "COUNT", NumPredicates: 0},
	}
	b := BucketRecords([]int{10, 20, 30}, anns, TextBucketKey())
	if b.NumBuckets() != 2 {
		t.Fatalf("buckets = %d", b.NumBuckets())
	}
	keys := b.SortedKeys()
	if len(keys) != 2 || keys[0] > keys[1] {
		t.Errorf("keys not sorted: %v", keys)
	}
	if got := b.Members("SELECT/1"); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("members = %v", got)
	}
}

func TestBucketRecordsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	BucketRecords([]int{1}, nil, TextBucketKey())
}

func TestSampleTripletInvariants(t *testing.T) {
	anns := []dataset.Annotation{
		dataset.TextAnnotation{Operator: "SELECT", NumPredicates: 1},
		dataset.TextAnnotation{Operator: "SELECT", NumPredicates: 1},
		dataset.TextAnnotation{Operator: "COUNT", NumPredicates: 0},
		dataset.TextAnnotation{Operator: "COUNT", NumPredicates: 0},
		dataset.TextAnnotation{Operator: "MAX", NumPredicates: 2},
	}
	ids := []int{0, 1, 2, 3, 4}
	key := TextBucketKey()
	b := BucketRecords(ids, anns, key)
	byID := map[int]dataset.Annotation{}
	for i, id := range ids {
		byID[id] = anns[i]
	}
	r := xrand.New(5)
	for trial := 0; trial < 500; trial++ {
		tr, ok := b.SampleTriplet(r)
		if !ok {
			t.Fatal("sampling failed")
		}
		if tr.Anchor == tr.Positive {
			t.Fatal("anchor == positive")
		}
		if key(byID[tr.Anchor]) != key(byID[tr.Positive]) {
			t.Fatal("anchor and positive in different buckets")
		}
		if key(byID[tr.Anchor]) == key(byID[tr.Negative]) {
			t.Fatal("negative shares the anchor bucket")
		}
	}
}

func TestSampleTripletImpossible(t *testing.T) {
	// One bucket only.
	one := []dataset.Annotation{
		dataset.TextAnnotation{Operator: "SELECT", NumPredicates: 1},
		dataset.TextAnnotation{Operator: "SELECT", NumPredicates: 1},
	}
	b := BucketRecords([]int{0, 1}, one, TextBucketKey())
	if _, ok := b.SampleTriplet(xrand.New(1)); ok {
		t.Error("single bucket should not produce triplets")
	}
	// All singleton buckets.
	singles := []dataset.Annotation{
		dataset.TextAnnotation{Operator: "SELECT", NumPredicates: 1},
		dataset.TextAnnotation{Operator: "COUNT", NumPredicates: 1},
	}
	b = BucketRecords([]int{0, 1}, singles, TextBucketKey())
	if _, ok := b.SampleTriplet(xrand.New(1)); ok {
		t.Error("singleton buckets should not produce triplets")
	}
}
