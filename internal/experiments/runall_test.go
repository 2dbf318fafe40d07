package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tiny.golden from this run")

// goldenPath holds every TinyScale row of every experiment, bit for bit.
const goldenPath = "testdata/tiny.golden"

// TestRunAllTiny executes every registered experiment at TinyScale, checking
// each produces rows, none errors, and every row matches testdata/tiny.golden
// (setting, method, metric, the value's float64 bits, notes) — the evidence
// that a refactor below the experiments changed no number the paper's tables
// report. Regenerate the file with `go test ./internal/experiments -run
// TestRunAllTiny -update`. It takes a few minutes, so -short skips it, and the
// race detector's slowdown makes it time out, so -race skips it too (the
// parallel pool it would exercise has dedicated -race tests elsewhere).
func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race detector: sweep exceeds test timeout; see race_test.go")
	}
	want, err := readGolden(goldenPath)
	if err != nil && !*update {
		t.Fatal(err)
	}
	sc := TinyScale()
	ids := IDs()
	got := make([][]string, len(ids))
	if *update {
		t.Cleanup(func() {
			if !t.Failed() {
				writeGolden(t, goldenPath, got)
			}
		})
	}
	for i, id := range ids {
		t.Run(id, func(t *testing.T) {
			t.Parallel() // experiments are independent and CPU-bound
			rep, err := Run(id, sc, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rows) == 0 {
				t.Fatal("no rows")
			}
			if rep.ID != id {
				t.Fatalf("report id %q", rep.ID)
			}
			for _, row := range rep.Rows {
				if row.Setting == "" || row.Method == "" || row.Metric == "" {
					t.Fatalf("incomplete row %+v", row)
				}
			}
			got[i] = goldenLines(rep)
			if *update {
				return
			}
			if len(got[i]) != len(want[id]) {
				t.Errorf("%d rows, golden has %d", len(got[i]), len(want[id]))
			}
			for j := 0; j < min(len(got[i]), len(want[id])); j++ {
				if got[i][j] != want[id][j] {
					t.Errorf("row %d:\n got  %s\n want %s", j, got[i][j], want[id][j])
				}
			}
		})
	}
}

// tableWall is extra-ann's measured table-build time in its notes.
var tableWall = regexp.MustCompile(`table=\d+ms`)

// volatile reports whether a row's value differs between identical runs: a
// measured wall clock folded into it, or the circuit breaker's outage burst,
// whose 1 ms cooldown times trips, rejections and served calls by the clock.
func volatile(id string, row Row) bool {
	switch id {
	case "fig2":
		return row.Method == "TASTI-T" && (row.Metric == "cluster s" || row.Metric == "total s")
	case "table1":
		return row.Method == "TASTI (all costs)" && row.Metric == "s"
	case "faults":
		return row.Method == "breaker @0.95"
	case "ingest":
		return row.Metric != "appended records"
	}
	return false
}

// goldenLines renders a report's rows one per line, tab-separated: id,
// setting, method, metric, the value's float64 bits and its shortest exact
// decimal, notes. Volatile values and extra-ann's table wall print as "~".
func goldenLines(rep *Report) []string {
	lines := make([]string, len(rep.Rows))
	for i, row := range rep.Rows {
		value := fmt.Sprintf("%016x %s", math.Float64bits(row.Value), strconv.FormatFloat(row.Value, 'g', -1, 64))
		if volatile(rep.ID, row) {
			value = "~"
		}
		notes := tableWall.ReplaceAllString(row.Extra, "table=~ms")
		lines[i] = strings.Join([]string{rep.ID, row.Setting, row.Method, row.Metric, value, notes}, "\t")
	}
	return lines
}

// readGolden returns the golden lines keyed by experiment ID.
func readGolden(path string) (map[string][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, _, _ := strings.Cut(line, "\t")
		out[id] = append(out[id], line)
	}
	return out, sc.Err()
}

func writeGolden(t *testing.T, path string, reports [][]string) {
	var b strings.Builder
	b.WriteString("# TestRunAllTiny golden rows: id, setting, method, metric, value bits and decimal (~ = varies run to run), notes.\n")
	b.WriteString("# Regenerate: go test ./internal/experiments -run TestRunAllTiny -update\n")
	for _, lines := range reports {
		for _, line := range lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
