package experiments

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/labeler"
)

func TestAllSettingsWellFormed(t *testing.T) {
	settings := AllSettings()
	if len(settings) != 6 {
		t.Fatalf("got %d settings, want 6", len(settings))
	}
	keys := map[string]bool{}
	for _, s := range settings {
		if keys[s.Key] {
			t.Errorf("duplicate key %s", s.Key)
		}
		keys[s.Key] = true
		if s.AggScore == nil || s.SelPred == nil || s.LimitPred == nil || s.BucketKey == nil {
			t.Errorf("%s: missing query definitions", s.Key)
		}
		if s.AggSD <= 0 {
			t.Errorf("%s: AggSD = %v", s.Key, s.AggSD)
		}
		if s.LimitK <= 0 {
			t.Errorf("%s: LimitK = %d", s.Key, s.LimitK)
		}
	}
	for _, want := range []string{"night-street", "taipei-car", "taipei-bus", "amsterdam", "wikisql", "common-voice"} {
		if !keys[want] {
			t.Errorf("missing setting %s", want)
		}
	}
}

func TestSettingByKey(t *testing.T) {
	s, err := SettingByKey("taipei-bus")
	if err != nil {
		t.Fatal(err)
	}
	if s.Dataset != "taipei" {
		t.Errorf("dataset = %s", s.Dataset)
	}
	if _, err := SettingByKey("nope"); err == nil {
		t.Error("unknown key should error")
	}
}

func TestSettingQueriesMatchSchema(t *testing.T) {
	// Every setting's queries must evaluate without panicking on its own
	// corpus, and the limit predicate must be rarer than the selection
	// predicate.
	sc := TinyScale()
	for _, s := range AllSettings() {
		env, err := NewEnv(s, sc)
		if err != nil {
			t.Fatalf("%s: %v", s.Key, err)
		}
		sel, lim := 0, 0
		for _, ann := range env.DS.Truth {
			s.AggScore(ann)
			if s.SelPred(ann) {
				sel++
			}
			if s.LimitPred(ann) {
				lim++
			}
			s.BucketKey(ann)
		}
		if sel == 0 {
			t.Errorf("%s: selection predicate matches nothing", s.Key)
		}
		if lim >= sel {
			t.Errorf("%s: limit predicate (%d) not rarer than selection (%d)", s.Key, lim, sel)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	sc := DefaultScale()
	video, _ := SettingByKey("night-street")
	text, _ := SettingByKey("wikisql")
	speech, _ := SettingByKey("common-voice")

	if sc.CorpusSize(video) != sc.VideoFrames {
		t.Error("video corpus size")
	}
	if sc.CorpusSize(text) != sc.TextQuestions {
		t.Error("text corpus size")
	}
	if sc.CorpusSize(speech) != sc.SpeechSnippets {
		t.Error("speech corpus size")
	}
	tr, reps := sc.IndexBudgets(video)
	if tr != sc.VideoTrain || reps != sc.VideoReps {
		t.Error("video budgets")
	}
	tr, reps = sc.IndexBudgets(text)
	if tr != sc.TextTrain || reps != sc.TextReps {
		t.Error("text budgets")
	}
	if sc.SUPGBudget(video) <= 0 {
		t.Error("SUPG budget")
	}
	if sc.AggErrTarget(video) != sc.AggErrFrac*video.AggSD {
		t.Error("err target")
	}
}

func TestReport(t *testing.T) {
	rep := &Report{ID: "figX", Title: "test"}
	rep.Add("s", "m", "metric", 42, "note")
	rep.Add("s", "m2", "metric", 0.123, "")
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"figX", "42", "0.123", "note"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed report missing %q:\n%s", want, out)
		}
	}
	if v, ok := rep.Value("s", "m"); !ok || v != 42 {
		t.Errorf("Value = %v, %v", v, ok)
	}
	if _, ok := rep.Value("s", "missing"); ok {
		t.Error("missing row found")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("got %d experiments", len(ids))
	}
	desc := Describe()
	for _, id := range ids {
		if desc[id] == "" {
			t.Errorf("%s has no description", id)
		}
	}
	if _, err := Run("nope", TinyScale(), nil); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestDesignIndexListsEveryExperiment: DESIGN.md's "Per-experiment index"
// table has one row per registered experiment, in the registry's order, and
// no row for an experiment the registry does not have.
func TestDesignIndexListsEveryExperiment(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Per-experiment index\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Per-experiment index" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		id := strings.TrimSpace(cells[1])
		if id == "Id" || strings.Trim(id, "-") == "" {
			continue // header and separator
		}
		rows = append(rows, id)
	}
	if !slices.Equal(rows, IDs()) {
		t.Errorf("DESIGN.md's per-experiment index lists\n %v\nthe registry has\n %v", rows, IDs())
	}
}

func TestEnvHelpers(t *testing.T) {
	s, _ := SettingByKey("night-street")
	env, err := NewEnv(s, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	truth := env.Truth(s.AggScore)
	matches := env.TruthMatches(s.SelPred)
	if len(truth) != env.DS.Len() || len(matches) != env.DS.Len() {
		t.Fatal("truth helpers sized wrong")
	}
	for i := range truth {
		if (truth[i] >= 1) != matches[i] {
			t.Fatalf("record %d: count %v but match %v", i, truth[i], matches[i])
		}
	}
	counting := labeler.NewCounting(env.Oracle)
	if _, err := counting.Label(0); err != nil {
		t.Fatal(err)
	}
}

func TestIndexConfigPanicsForNonIndexVariant(t *testing.T) {
	s, _ := SettingByKey("night-street")
	env, err := NewEnv(s, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic for NoProxy variant")
		}
	}()
	env.IndexConfig(NoProxy)
}

// TestRunFig2Tiny exercises one cheap runner end to end.
func TestRunFig2Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunFig2(TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	blazeit, ok1 := rep.Value("night-street", "BlazeIt")
	if !ok1 || blazeit <= 0 {
		t.Errorf("BlazeIt TMAS row missing or nonpositive")
	}
	found := false
	for _, row := range rep.Rows {
		if row.Method == "TASTI-T" && row.Metric == "total s" && row.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("TASTI total row missing")
	}
}

// TestRunFig9Tiny checks the factor analysis produces rows for all four
// steps and that the full configuration is not worse than no optimizations
// on aggregation.
func TestRunFig9Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunFig9(TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var none, full float64
	for _, row := range rep.Rows {
		if row.Metric != "agg target calls" {
			continue
		}
		switch row.Method {
		case "none":
			none = row.Value
		case "+FPF train":
			full = row.Value
		}
	}
	if none == 0 || full == 0 {
		t.Fatalf("missing rows: none=%v full=%v", none, full)
	}
	if full > none {
		t.Errorf("full system (%v calls) worse than no optimizations (%v)", full, none)
	}
}

// TestRunTable3Tiny checks the cracking experiment runs and cracking does
// not catastrophically regress the second query.
func TestRunTable3Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := RunTable3(TinyScale(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestReportWriters(t *testing.T) {
	rep := &Report{ID: "figX", Title: "test"}
	rep.Add("s", "m", "metric", 42, "note")

	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"### figX", "| s | m | metric | 42 | note |"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id": "figX"`, `"value": 42`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("json missing %q:\n%s", want, js.String())
		}
	}
}

func TestRunReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunReplicated("fig2", TinyScale(), []int64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rep.Rows {
		if !strings.Contains(row.Extra, "n=2") {
			t.Fatalf("row missing replica count: %+v", row)
		}
	}
	if _, err := RunReplicated("fig2", TinyScale(), nil, nil); err == nil {
		t.Error("no seeds should error")
	}
}
