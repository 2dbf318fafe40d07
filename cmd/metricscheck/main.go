// Command metricscheck verifies that the metric catalogue in
// docs/OBSERVABILITY.md and the metrics the code actually emits cannot
// drift apart, and that every catalogued series earns its place: every
// tasti_* metric name found in non-test Go source must appear in a
// catalogue table row, every catalogued name must still exist in source,
// and every catalogue row must name in its Answers column the operator
// question the series answers. CI runs it on every PR (and its test runs it
// under go test), so adding a metric without documenting it — or without a
// question for it — or documenting one that was renamed away fails the
// build with the exact names.
//
// Usage:
//
//	go run ./cmd/metricscheck              # repo rooted at .
//	go run ./cmd/metricscheck -root dir -docs docs/OBSERVABILITY.md
//
// Source names are matched as tasti_[a-z0-9_]+ literals in .go files
// (tests excluded — tests may fabricate names on purpose). A catalogue row
// is a markdown table row whose first cell names a metric; only that cell
// documents it, so prose, runbook snippets and mentions in other cells
// don't count as documentation. The row's cell under the table's Answers
// header must be a question: non-empty and ending in "?". Histogram
// rendering suffixes (_bucket, _sum, _count) are normalized away on both
// sides.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// metricRE matches a metric name. Trailing-underscore matches (from prose
// like "the tasti_ingest_* metrics") are discarded after the fact, since a
// registered name never ends with an underscore.
var metricRE = regexp.MustCompile(`tasti_[a-z0-9_]+`)

// separatorRE matches a markdown table's header separator row.
var separatorRE = regexp.MustCompile(`^\|(\s*:?-+:?\s*\|)+$`)

func main() {
	root := flag.String("root", ".", "repository root to scan")
	docs := flag.String("docs", "docs/OBSERVABILITY.md", "metric catalogue path, relative to -root")
	flag.Parse()

	n, problems, err := check(*root, *docs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: %v\n", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "metricscheck: %s\n", p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "metricscheck: %d problems across %d source metrics\n", len(problems), n)
		os.Exit(1)
	}
	fmt.Printf("metricscheck: %d metrics, source and %s agree, and every row answers a question\n", n, *docs)
}

// check compares the source under root with the catalogue at docs
// (relative to root). It returns the number of metrics the source emits and
// one line per problem, each naming the offending metric.
func check(root, docs string) (int, []string, error) {
	inSource, err := sourceMetrics(root)
	if err != nil {
		return 0, nil, err
	}
	inDocs, problems, err := docMetrics(filepath.Join(root, docs))
	if err != nil {
		return 0, nil, err
	}
	for _, name := range diff(inSource, inDocs) {
		problems = append(problems, fmt.Sprintf("%s is emitted by source but missing from %s", name, docs))
	}
	for _, name := range diff(inDocs, inSource) {
		problems = append(problems, fmt.Sprintf("%s is catalogued in %s but no source emits it", name, docs))
	}
	return len(inSource), problems, nil
}

// sourceMetrics collects metric names from every non-test .go file under
// root, skipping this command's own directory (its examples and error
// strings are not emissions).
func sourceMetrics(root string) (map[string]bool, error) {
	names := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "metricscheck":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		collect(names, string(raw))
		return nil
	})
	return names, err
}

// docMetrics collects the names the catalogue rows document and reports
// each row whose Answers cell holds no question.
func docMetrics(path string) (map[string]bool, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	names := make(map[string]bool)
	var problems []string
	lines := strings.Split(string(raw), "\n")
	answers := -1 // the current table's Answers column, -1 if it has none
	for i, line := range lines {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			answers = -1
			continue
		}
		if separatorRE.MatchString(line) {
			continue
		}
		cells := splitRow(line)
		if i+1 < len(lines) && separatorRE.MatchString(strings.TrimSpace(lines[i+1])) {
			answers = -1
			for c, cell := range cells {
				if cell == "Answers" {
					answers = c
				}
			}
			continue
		}
		row := make(map[string]bool)
		collect(row, cells[0])
		if len(row) == 0 {
			continue
		}
		question := ""
		if answers >= 0 && answers < len(cells) {
			question = strings.Trim(cells[answers], " *_")
		}
		for name := range row {
			names[name] = true
			if !strings.HasSuffix(question, "?") {
				problems = append(problems, fmt.Sprintf("%s:%d: %s has no question in its Answers cell", path, i+1, name))
			}
		}
	}
	return names, problems, nil
}

// splitRow splits a markdown table row into its trimmed cells; an escaped
// pipe (\|) inside a cell does not split it.
func splitRow(line string) []string {
	line = strings.TrimSuffix(strings.TrimPrefix(line, "|"), "|")
	cells := strings.Split(strings.ReplaceAll(line, `\|`, "\x00"), "|")
	for i, c := range cells {
		cells[i] = strings.TrimSpace(strings.ReplaceAll(c, "\x00", `\|`))
	}
	return cells
}

func collect(into map[string]bool, text string) {
	for _, m := range metricRE.FindAllString(text, -1) {
		m = normalize(m)
		if m != "" {
			into[m] = true
		}
	}
}

// normalize drops glob-style prose matches and folds histogram rendering
// suffixes back to the registered family name.
func normalize(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suffix)
	}
	if strings.HasSuffix(name, "_") || name == "tasti" {
		return ""
	}
	return name
}

// diff returns the names in a but not in b, sorted.
func diff(a, b map[string]bool) []string {
	var out []string
	for name := range a {
		if !b[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
