package triplet

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
)

func frame(boxes ...dataset.Box) dataset.VideoAnnotation {
	return dataset.VideoAnnotation{Boxes: boxes}
}

// TestVideoCloseness: frames share a VideoBucketKey bucket when their boxes
// pair up class for class in one grid cell, and only then.
func TestVideoCloseness(t *testing.T) {
	key := VideoBucketKey(0.5)
	a := frame(dataset.Box{Class: "car", X: 0.2, Y: 0.2})
	b := frame(dataset.Box{Class: "car", X: 0.25, Y: 0.22})
	far := frame(dataset.Box{Class: "car", X: 0.8, Y: 0.8})
	twoCars := frame(dataset.Box{Class: "car", X: 0.2, Y: 0.2}, dataset.Box{Class: "car", X: 0.8, Y: 0.8})
	bus := frame(dataset.Box{Class: "bus", X: 0.2, Y: 0.2})

	if key(a) != key(b) {
		t.Error("nearby same-class frames should be close")
	}
	if key(a) == key(far) {
		t.Error("distant boxes should not be close")
	}
	if key(a) == key(twoCars) {
		t.Error("different counts should not be close")
	}
	if key(a) == key(bus) {
		t.Error("different classes should not be close")
	}
	if key(frame()) != key(frame()) {
		t.Error("two empty frames should be close")
	}
	if key(a) == key(dataset.TextAnnotation{}) {
		t.Error("cross-kind should not be close")
	}
}

func TestVideoClosenessMatching(t *testing.T) {
	// Matching must handle permuted boxes.
	key := VideoBucketKey(0.5)
	a := frame(
		dataset.Box{Class: "car", X: 0.1, Y: 0.1},
		dataset.Box{Class: "car", X: 0.9, Y: 0.9},
	)
	b := frame(
		dataset.Box{Class: "car", X: 0.92, Y: 0.88},
		dataset.Box{Class: "car", X: 0.12, Y: 0.08},
	)
	if key(a) != key(b) {
		t.Error("permuted matching boxes should be close")
	}
}

func TestVideoBucketKey(t *testing.T) {
	key := VideoBucketKey(0.5)
	a := frame(dataset.Box{Class: "car", X: 0.1, Y: 0.1})
	b := frame(dataset.Box{Class: "car", X: 0.3, Y: 0.4})
	c := frame(dataset.Box{Class: "car", X: 0.7, Y: 0.1})
	if key(a) != key(b) {
		t.Error("same cell should share a bucket")
	}
	if key(a) == key(c) {
		t.Error("different cells should differ")
	}
	// Box order must not matter.
	ab := frame(a.Boxes[0], c.Boxes[0])
	ba := frame(c.Boxes[0], a.Boxes[0])
	if key(ab) != key(ba) {
		t.Error("bucket key depends on box order")
	}
	if key(dataset.TextAnnotation{}) != "non-video" {
		t.Error("non-video fallback")
	}
}

func TestVideoBucketKeyPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for cell <= 0")
		}
	}()
	VideoBucketKey(0)
}

func TestTextCloseness(t *testing.T) {
	key := TextBucketKey()
	a := dataset.TextAnnotation{Operator: "COUNT", NumPredicates: 2}
	b := dataset.TextAnnotation{Operator: "COUNT", NumPredicates: 2}
	c := dataset.TextAnnotation{Operator: "COUNT", NumPredicates: 3}
	d := dataset.TextAnnotation{Operator: "SUM", NumPredicates: 2}
	if key(a) != key(b) || key(a) == key(c) || key(a) == key(d) {
		t.Error("text bucket key wrong")
	}
	if key(dataset.SpeechAnnotation{}) != "non-text" {
		t.Error("non-text fallback")
	}
}

func TestSpeechCloseness(t *testing.T) {
	key := SpeechBucketKey()
	a := dataset.SpeechAnnotation{Gender: "male", AgeYears: 41}
	b := dataset.SpeechAnnotation{Gender: "male", AgeYears: 49}
	c := dataset.SpeechAnnotation{Gender: "male", AgeYears: 51}
	d := dataset.SpeechAnnotation{Gender: "female", AgeYears: 41}
	if key(a) != key(b) {
		t.Error("same decade should be close")
	}
	if key(a) == key(c) || key(a) == key(d) {
		t.Error("different decade/gender should not be close")
	}
	if key(dataset.TextAnnotation{}) != "non-speech" {
		t.Error("non-speech fallback")
	}
}

// TestClosenessConsistentWithBuckets: on generated data, frames that share a
// bucket have the same number of objects of every class, and each box has a
// same-class box in the other frame within one grid cell.
func TestClosenessConsistentWithBuckets(t *testing.T) {
	const cell = 0.5
	ds, err := dataset.Generate("night-street", 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := VideoBucketKey(cell)
	byKey := map[string][]int{}
	for i, ann := range ds.Truth {
		k := key(ann)
		byKey[k] = append(byKey[k], i)
	}
	shared := 0
	for _, ids := range byKey {
		first := ds.Truth[ids[0]].(dataset.VideoAnnotation)
		for _, id := range ids[1:] {
			other := ds.Truth[id].(dataset.VideoAnnotation)
			if len(other.Boxes) != len(first.Boxes) {
				t.Fatalf("records %d and %d share a bucket with %d and %d boxes", ids[0], id, len(first.Boxes), len(other.Boxes))
			}
			for _, a := range first.Boxes {
				if other.Count(a.Class) != first.Count(a.Class) ||
					!slices.ContainsFunc(other.Boxes, func(b dataset.Box) bool {
						return b.Class == a.Class && math.Abs(a.X-b.X) < cell && math.Abs(a.Y-b.Y) < cell
					}) {
					t.Fatalf("records %d and %d share a bucket but are not close", ids[0], id)
				}
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no two generated frames share a bucket")
	}
}
