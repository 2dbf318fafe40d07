package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositoryCatalogue runs the check over this repository, so go test
// catches catalogue drift and rows without a question, not only CI's step.
func TestRepositoryCatalogue(t *testing.T) {
	n, problems, err := check(filepath.Join("..", ".."), "docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	if n == 0 {
		t.Error("found no metrics in the repository's source")
	}
}

// TestCraftedCatalogues feeds small catalogues against a two-metric source
// and asserts each defect fails, naming the offending metric.
func TestCraftedCatalogues(t *testing.T) {
	const source = `package emit

func register(reg registry) {
	reg.Counter("tasti_a_total")
	reg.Histogram("tasti_b_seconds", nil)
}
`
	const header = "| Metric | Type | Meaning | Answers |\n|---|---|---|---|\n"
	const rowA = "| `tasti_a_total` | counter | As. | How many As? |\n"
	for _, tc := range []struct {
		name, docs string
		want       string // "" for a clean catalogue, else the one problem expected
	}{
		{"clean", header + rowA + "| `tasti_b_seconds` | histogram | B latency (`tasti_b_seconds_bucket`). | How slow is *B*? |\n", ""},
		{"empty answer", header + rowA + "| `tasti_b_seconds` | histogram | B latency. | |\n", "tasti_b_seconds has no question"},
		{"statement", header + rowA + "| `tasti_b_seconds` | histogram | B latency. | B latency. |\n", "tasti_b_seconds has no question"},
		{"no Answers column", "| Metric | Type | Meaning |\n|---|---|---|\n| `tasti_a_total` | counter | As. |\n" +
			"\n" + header + "| `tasti_b_seconds` | histogram | B latency. | How slow is B? |\n", "tasti_a_total has no question"},
		{"pipe in a label cell", header + rowA + "| `tasti_b_seconds{kind=\"x\"\\|\"y\"}` | histogram | B latency. | How slow is B? |\n", ""},
		{"undocumented", header + rowA + "\nProse naming `tasti_b_seconds` documents nothing.\n",
			"tasti_b_seconds is emitted by source but missing"},
		{"named only in another cell", header + "| `tasti_a_total` | counter | Unlike `tasti_b_seconds`. | How many As? |\n",
			"tasti_b_seconds is emitted by source but missing"},
		{"stale", header + rowA + "| `tasti_b_seconds` | histogram | B. | How slow is B? |\n| `tasti_c_total` | counter | Gone. | How many Cs? |\n",
			"tasti_c_total is catalogued in catalogue.md but no source emits it"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			if err := os.WriteFile(filepath.Join(root, "emit.go"), []byte(source), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, "catalogue.md"), []byte(tc.docs), 0o644); err != nil {
				t.Fatal(err)
			}
			n, problems, err := check(root, "catalogue.md")
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 {
				t.Errorf("source metrics = %d, want 2", n)
			}
			if tc.want == "" {
				for _, p := range problems {
					t.Errorf("unexpected problem: %s", p)
				}
				return
			}
			if len(problems) != 1 || !strings.Contains(problems[0], tc.want) {
				t.Errorf("problems = %q, want exactly one containing %q", problems, tc.want)
			}
		})
	}
}
