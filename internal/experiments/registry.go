package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner executes one experiment at a scale, printing its report to w (nil
// suppresses printing) and returning it.
type Runner func(sc Scale, w io.Writer) (*Report, error)

// registry maps experiment IDs to runners, in the paper's order.
var registry = []struct {
	ID, Title string
	Run       Runner
}{
	{"fig2", "index construction time breakdown", RunFig2},
	{"fig3", "construction time vs aggregation performance", RunFig3},
	{"fig4", "approximate aggregation across six settings", RunFig4},
	{"fig5", "SUPG recall-target selection across six settings", RunFig5},
	{"fig6", "limit queries across six settings", RunFig6},
	{"table1", "query costs per target labeler", RunTable1},
	{"fig7", "position-based SUPG selection", RunFig7},
	{"fig8", "average-position aggregation", RunFig8},
	{"table2", "queries without statistical guarantees", RunTable2},
	{"table3", "index cracking", RunTable3},
	{"fig9", "factor analysis", RunFig9},
	{"fig10", "lesion study", RunFig10},
	{"fig11", "sensitivity to cluster representatives", RunFig11},
	{"fig12", "sensitivity to training examples", RunFig12},
	{"fig13", "sensitivity to embedding dimension", RunFig13},
	{"extra-ann", "ablation (not in paper): exact vs IVF distance table", RunExtraANN},
	{"extra-predagg", "extension (not in paper): aggregation with expensive predicates", RunExtraPredAgg},
	{"faults", "robustness (not in paper): construction cost inflation under labeler faults", RunFaults},
	{"ingest", "robustness (not in paper): streaming append throughput and ack latency under a query storm", RunIngest},
	{"multiquery", "robustness (not in paper): concurrent mixed queries amortized by the shared label store", RunMultiQuery},
}

// IDs returns the experiment identifiers in the paper's order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Describe returns the one-line description of each experiment keyed by ID.
func Describe() map[string]string {
	out := make(map[string]string, len(registry))
	for _, e := range registry {
		out[e.ID] = e.Title
	}
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, sc Scale, w io.Writer) (*Report, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Run(sc, w)
		}
	}
	ids := IDs()
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %v)", id, ids)
}
