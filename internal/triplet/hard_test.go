package triplet

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/xrand"
)

func TestBucketsKey(t *testing.T) {
	ds, ids, anns := trainSetup(t, 600)
	b := BucketRecords(ids, anns, SpeechBucketKey())
	for _, key := range b.SortedKeys() {
		for _, id := range b.Members(key) {
			if b.Key(id) != key {
				t.Fatalf("record %d: Key=%q but member of %q", id, b.Key(id), key)
			}
		}
	}
	if b.Key(999999) != "" {
		t.Error("unknown id should map to empty key")
	}
	_ = ds
}

// TestHardNegativesTrainAtLeastAsWell checks that semi-hard negative mining
// produces an embedding with triplet loss no worse than random negatives at
// the same step budget.
func TestHardNegativesTrainAtLeastAsWell(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds, ids, anns := trainSetup(t, 1200)
	key := SpeechBucketKey()

	base := DefaultConfig(16, 3)
	base.Steps = 400

	hard := base
	hard.HardNegatives = 4

	randTrained, err := Train(base, ds, ids, anns, key, 2)
	if err != nil {
		t.Fatal(err)
	}
	hardTrained, err := Train(hard, ds, ids, anns, key, 2)
	if err != nil {
		t.Fatal(err)
	}
	lossRand, err := EmpiricalLoss(xrand.New(7), randTrained, ds, ids, anns, key, base.Margin, 500)
	if err != nil {
		t.Fatal(err)
	}
	lossHard, err := EmpiricalLoss(xrand.New(7), hardTrained, ds, ids, anns, key, base.Margin, 500)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("triplet loss: random negatives=%.3f hard negatives=%.3f", lossRand, lossHard)
	if lossHard > lossRand*1.5 {
		t.Errorf("hard negatives much worse: %v vs %v", lossHard, lossRand)
	}
	// Both should beat the untrained baseline.
	pre := embed.NewPretrained(ds.FeatureDim(), 16, 3)
	lossPre, err := EmpiricalLoss(xrand.New(7), pre, ds, ids, anns, key, base.Margin, 500)
	if err != nil {
		t.Fatal(err)
	}
	if lossHard >= lossPre {
		t.Errorf("hard-negative training did not beat pretrained: %v vs %v", lossHard, lossPre)
	}
}
