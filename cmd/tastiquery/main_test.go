package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/labeler"
	"repro/tasti"
)

func TestQuerySpec(t *testing.T) {
	videoScore, videoPred := querySpec("night-street", "car", 2)
	ann := tasti.VideoAnnotation{Boxes: []tasti.Box{{Class: "car"}, {Class: "car"}, {Class: "bus"}}}
	if videoScore(ann) != 2 {
		t.Errorf("video score = %v", videoScore(ann))
	}
	if !videoPred(ann) {
		t.Error("two cars should match count>=2")
	}

	_, textPred := querySpec("wikisql", "", 3)
	if textPred(tasti.TextAnnotation{NumPredicates: 2}) {
		t.Error("2 predicates should not match count>=3")
	}
	if !textPred(tasti.TextAnnotation{NumPredicates: 3}) {
		t.Error("3 predicates should match")
	}

	speechScore, speechPred := querySpec("common-voice", "", 0)
	male := tasti.SpeechAnnotation{Gender: "male"}
	female := tasti.SpeechAnnotation{Gender: "female"}
	if speechScore(male) != 1 || speechScore(female) != 0 {
		t.Error("speech score wrong")
	}
	if !speechPred(male) || speechPred(female) {
		t.Error("speech predicate wrong")
	}
}

func TestIndexConfig(t *testing.T) {
	cfg := indexConfig("night-street", 100, 50, 1)
	if !cfg.DoTrain || cfg.TrainingBudget != 100 || cfg.NumReps != 50 {
		t.Errorf("video config = %+v", cfg)
	}
	pt := indexConfig("wikisql", 0, 50, 1)
	if pt.DoTrain {
		t.Error("train=0 should build TASTI-PT")
	}
}

// testOptions returns a fast baseline configuration tests tweak per case.
func testOptions() runOptions {
	return runOptions{
		dsName: "night-street", size: 1200, seed: 1, query: "agg", class: "car",
		count: 5, k: 5, train: 200, reps: 150, budget: 100,
		errTgt: 0.2, recall: 0.9, par: 2, retries: 1,
	}
}

func TestRunSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.gob")

	// Build + save.
	o := testOptions()
	o.save = path
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("index not saved: %v", err)
	}
	// Load + query.
	o = testOptions()
	o.query, o.count, o.k, o.train, o.load = "limit", 4, 3, 100, path
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// Unknown query type errors.
	o = testOptions()
	o.size, o.query, o.count, o.k, o.train, o.reps, o.budget = 300, "nope", 1, 1, 0, 50, 50
	if err := run(o); err == nil {
		t.Error("unknown query should error")
	}
}

// TestRunChaosBuild: a build through an injected-fault labeler with retries
// on completes and answers queries.
func TestRunChaosBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := testOptions()
	o.size, o.train, o.reps = 800, 100, 80
	o.faultRate = 0.3
	o.retries = 5
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// recordingLabeler notes every record the target labeler is asked for.
type recordingLabeler struct {
	tasti.Labeler
	ids []int
}

func (r *recordingLabeler) Label(id int) (tasti.Annotation, error) {
	r.ids = append(r.ids, id)
	return r.Labeler.Label(id)
}

// TestBuildIndexCheckpointResume exercises the CLI's resume flow: a build
// interrupted mid-representatives leaves every label it bought in its
// -label-store file, and re-running resumes from that file — no labeler
// call on a record the file holds — to an index bit for bit the
// uninterrupted build's.
func TestBuildIndexCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := testOptions()
	o.size, o.train, o.reps = 800, 0, 80 // TASTI-PT: labels go to reps only
	o.par = 1

	ds, err := tasti.GenerateDataset(o.dsName, o.size, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle := tasti.NewOracle(ds, "target", tasti.MaskRCNNCost)
	clean, err := buildIndex(o, ds, oracle, openLabels(o, ds), nil)
	if err != nil {
		t.Fatal(err)
	}

	// First run hits a spent budget mid-representative-labeling.
	o.labelStore = filepath.Join(t.TempDir(), "labels.snap")
	if _, err := buildIndex(o, ds, labeler.NewBudgeted(oracle, 30), openLabels(o, ds), nil); err == nil {
		t.Fatal("budgeted build succeeded, want interruption")
	}
	held := tasti.NewLabelStore(tasti.LabelStoreOptions{
		Corpus: tasti.Corpus{Dataset: o.dsName, Size: o.size, Seed: o.seed},
	})
	if err := tasti.ReadSnapshotFile(o.labelStore, held.Restore); err != nil {
		t.Fatalf("label store not saved: %v", err)
	}
	if held.Len() != 30 {
		t.Fatalf("the label store holds %d labels, want 30", held.Len())
	}

	// Second run resumes; the remaining budget is exactly enough.
	rec := &recordingLabeler{Labeler: labeler.NewBudgeted(oracle, 50)}
	ix, err := buildIndex(o, ds, rec, openLabels(o, ds), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rec.ids {
		if _, ok := held.Get(id); ok {
			t.Fatalf("the resumed build paid again for record %d, which the file holds", id)
		}
	}
	if ix.Stats.ResumedLabels != 30 {
		t.Errorf("ResumedLabels = %d, want 30", ix.Stats.ResumedLabels)
	}
	if ix.Stats.RepLabelCalls != 50 {
		t.Errorf("resumed RepLabelCalls = %d, want 50", ix.Stats.RepLabelCalls)
	}
	if !slices.Equal(ix.Table.Reps, clean.Table.Reps) {
		t.Fatalf("resumed reps %v, want %v", ix.Table.Reps, clean.Table.Reps)
	}
	for i, nbrs := range clean.Table.Neighbors {
		for j, nb := range nbrs {
			if got := ix.Table.Neighbors[i][j]; got.Rep != nb.Rep || math.Float64bits(got.Dist) != math.Float64bits(nb.Dist) {
				t.Fatalf("record %d neighbor %d = %+v, want %+v", i, j, got, nb)
			}
		}
	}
	for i := range clean.Embeddings.Rows() {
		for j, v := range clean.Embeddings.Row(i) {
			if math.Float64bits(ix.Embeddings.Row(i)[j]) != math.Float64bits(v) {
				t.Fatalf("embedding[%d][%d] differs", i, j)
			}
		}
	}
	if !reflect.DeepEqual(ix.Annotations, clean.Annotations) {
		t.Fatal("the resumed index's annotations differ")
	}
}

// TestRunLoadRefusesAnotherCorpus: -load of an index built over another
// seed, size or dataset fails before any query runs — its tables and
// annotations describe other records.
func TestRunLoadRefusesAnotherCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join(t.TempDir(), "idx.snap")
	o := testOptions()
	o.size, o.train, o.reps, o.save = 600, 0, 60, path
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	for name, change := range map[string]func(*runOptions){
		"seed":    func(o *runOptions) { o.seed = 2 },
		"size":    func(o *runOptions) { o.size = 500 },
		"dataset": func(o *runOptions) { o.dsName = "taipei" },
	} {
		o := testOptions()
		o.size, o.train, o.reps, o.load = 600, 0, 60, path
		change(&o)
		if err := run(o); !errors.Is(err, tasti.ErrSnapshotCorpus) {
			t.Errorf("-load under another %s: %v, want ErrSnapshotCorpus", name, err)
		}
	}
	o = testOptions()
	o.size, o.train, o.reps, o.load = 600, 0, 60, path
	if err := run(o); err != nil {
		t.Errorf("-load under the same corpus: %v", err)
	}
}
