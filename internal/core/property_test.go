package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/labeler"
)

// TestBuildPropertyInvariants builds TASTI-PT indexes across randomized
// small configurations and checks the structural invariants that every
// valid index must satisfy: a valid distance table, exactly NumReps
// annotated representatives, exact propagation on representatives, and
// bounded propagated scores.
func TestBuildPropertyInvariants(t *testing.T) {
	ds, err := dataset.Generate("night-street", 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	score := CountScore("car")
	truthMax := 0.0
	for _, ann := range ds.Truth {
		if v := score(ann); v > truthMax {
			truthMax = v
		}
	}

	f := func(seedRaw int64, repsRaw, kRaw, dimRaw uint8) bool {
		cfg := Config{
			NumReps:    int(repsRaw)%60 + 2,
			K:          int(kRaw)%6 + 1,
			EmbedDim:   int(dimRaw)%30 + 2,
			FPFCluster: seedRaw%2 == 0,
			Seed:       seedRaw,
		}
		ix, err := Build(cfg, ds, lab)
		if err != nil {
			return false
		}
		if ix.Table.Validate() != nil {
			return false
		}
		if len(ix.Table.Reps) != cfg.NumReps || len(ix.Annotations) != cfg.NumReps {
			return false
		}
		if ix.Stats.TrainLabelCalls != 0 || ix.Stats.RepLabelCalls != int64(cfg.NumReps) {
			return false
		}
		scores, err := ix.Propagate(score)
		if err != nil {
			return false
		}
		for _, rep := range ix.Table.Reps {
			if scores[rep] != score(ds.Truth[rep]) {
				return false
			}
		}
		for _, v := range scores {
			if v < 0 || v > truthMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
