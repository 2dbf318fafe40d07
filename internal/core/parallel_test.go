package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/triplet"
)

// buildAt builds the same seeded index at a given parallelism level.
func buildAt(t *testing.T, base Config, ds *dataset.Dataset, p int) *Index {
	t.Helper()
	cfg := base
	cfg.Parallelism = p
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	ix, err := Build(cfg, ds, lab)
	if err != nil {
		t.Fatalf("Build(p=%d): %v", p, err)
	}
	return ix
}

// assertIndexesIdentical asserts bitwise equality of everything queries can
// observe: representatives, neighbor lists (IDs and float distances),
// embeddings, and label-call accounting.
func assertIndexesIdentical(t *testing.T, serial, par *Index, p int) {
	t.Helper()
	if len(serial.Table.Reps) != len(par.Table.Reps) {
		t.Fatalf("p=%d: %d reps vs %d serial", p, len(par.Table.Reps), len(serial.Table.Reps))
	}
	for i, rep := range serial.Table.Reps {
		if par.Table.Reps[i] != rep {
			t.Fatalf("p=%d: rep[%d] = %d, serial %d", p, i, par.Table.Reps[i], rep)
		}
	}
	for i, nbrs := range serial.Table.Neighbors {
		got := par.Table.Neighbors[i]
		if len(got) != len(nbrs) {
			t.Fatalf("p=%d: record %d has %d neighbors, serial %d", p, i, len(got), len(nbrs))
		}
		for j, nb := range nbrs {
			if got[j] != nb {
				t.Fatalf("p=%d: record %d neighbor %d = %+v, serial %+v", p, i, j, got[j], nb)
			}
		}
	}
	if par.Embeddings.Rows() != serial.Embeddings.Rows() || par.Embeddings.Dim() != serial.Embeddings.Dim() {
		t.Fatalf("p=%d: embeddings %dx%d, serial %dx%d",
			p, par.Embeddings.Rows(), par.Embeddings.Dim(), serial.Embeddings.Rows(), serial.Embeddings.Dim())
	}
	for i := 0; i < serial.Embeddings.Rows(); i++ {
		for j, v := range serial.Embeddings.Row(i) {
			if par.Embeddings.Row(i)[j] != v {
				t.Fatalf("p=%d: embedding[%d][%d] = %v, serial %v", p, i, j, par.Embeddings.Row(i)[j], v)
			}
		}
	}
	if got, want := par.Stats.TotalLabelCalls(), serial.Stats.TotalLabelCalls(); got != want {
		t.Fatalf("p=%d: %d label calls, serial %d", p, got, want)
	}
}

// TestBuildDeterministicAcrossWorkerCounts is the subsystem's hard
// requirement: a Parallelism=1 build and any multi-worker build of the same
// seeded config produce the same index, down to float bits.
func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	ds, err := dataset.Generate("night-street", 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	trained := DefaultConfig(60, 80, triplet.VideoBucketKey(0.5), 5)
	trained.Train = triplet.DefaultConfig(trained.EmbedDim, 5)
	trained.Train.Steps = 300 // enough to exercise the trained path, fast
	configs := map[string]Config{
		"trained":    trained,
		"pretrained": PretrainedConfig(80, 5),
	}
	approx := PretrainedConfig(120, 5)
	approx.ApproxTable = true
	configs["approx-table"] = approx

	for name, base := range configs {
		t.Run(name, func(t *testing.T) {
			serial := buildAt(t, base, ds, 1)
			for _, p := range []int{2, 4, 7} {
				par := buildAt(t, base, ds, p)
				assertIndexesIdentical(t, serial, par, p)

				scoreSerial, err := serial.Propagate(CountScore("car"))
				if err != nil {
					t.Fatal(err)
				}
				scorePar, err := par.Propagate(CountScore("car"))
				if err != nil {
					t.Fatal(err)
				}
				for i := range scoreSerial {
					if scorePar[i] != scoreSerial[i] {
						t.Fatalf("p=%d: propagated score[%d] = %v, serial %v", p, i, scorePar[i], scoreSerial[i])
					}
				}
			}
		})
	}
}

// TestBuildRecordsPhaseWalls checks the new BuildStats breakdown: the
// sub-phase walls are populated and nest inside ClusterWall.
func TestBuildRecordsPhaseWalls(t *testing.T) {
	ds, err := dataset.Generate("night-street", 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := buildAt(t, PretrainedConfig(60, 3), ds, 0)
	st := ix.Stats
	if st.RepSelectWall <= 0 || st.RepLabelWall < 0 || st.TableWall <= 0 {
		t.Fatalf("sub-phase walls not recorded: %+v", st)
	}
	if sum := st.RepSelectWall + st.RepLabelWall + st.TableWall; sum > st.ClusterWall {
		t.Fatalf("sub-phases (%v) exceed ClusterWall (%v)", sum, st.ClusterWall)
	}
}
