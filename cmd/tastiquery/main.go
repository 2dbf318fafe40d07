// Command tastiquery builds a TASTI index over a synthetic corpus and runs
// ad-hoc queries against it, optionally persisting the index between runs.
//
// Usage:
//
//	tastiquery -dataset night-street -size 20000 -query agg -class car
//	tastiquery -dataset taipei -query limit -class bus -count 2 -k 10
//	tastiquery -dataset wikisql -query select -save /tmp/wikisql.idx
//
// Builds are fault tolerant: -retries and -label-timeout wrap the target
// labeler with reliability middleware, -fault-rate injects chaos for
// demonstration, -allow-degraded completes the index around permanently
// unlabelable records, and -label-store keeps every label the build buys in
// a file, so an interrupted build resumes without re-spending labeler budget
// (run the same command again to resume). The file is flushed every
// -label-flush and when the build ends, so even a hard kill (power loss, OOM
// killer) loses at most one period of labels. The query labels through the
// same store, as tastiserve's do: a label the build or the file holds costs
// it nothing. All files are written atomically: a crash mid-write leaves the
// previous file intact; -load refuses an index of another corpus. See
// docs/RELIABILITY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/tasti"
)

// runOptions collects the flag values; one struct instead of a 20-parameter
// run signature.
type runOptions struct {
	dsName string
	size   int
	seed   int64
	query  string
	class  string
	count  int
	k      int
	train  int
	reps   int
	budget int
	save   string
	load   string
	errTgt float64
	recall float64
	par    int

	retries       int
	labelTimeout  time.Duration
	faultRate     float64
	labelStore    string
	labelFlush    time.Duration
	allowDegraded bool

	traceOut string
}

func main() {
	var o runOptions
	flag.StringVar(&o.dsName, "dataset", "night-street", "corpus: night-street, taipei, amsterdam, wikisql, common-voice")
	flag.IntVar(&o.size, "size", 10000, "corpus size")
	flag.Int64Var(&o.seed, "seed", 1, "generation and algorithm seed")
	flag.StringVar(&o.query, "query", "agg", "query type: agg, select, limit")
	flag.StringVar(&o.class, "class", "car", "object class for video queries")
	flag.IntVar(&o.count, "count", 5, "count threshold for limit queries")
	flag.IntVar(&o.k, "k", 10, "matches requested by limit queries")
	flag.IntVar(&o.train, "train", 600, "triplet-training label budget (0 builds TASTI-PT)")
	flag.IntVar(&o.reps, "reps", 900, "cluster representatives to annotate")
	flag.IntVar(&o.budget, "budget", 300, "labeler budget for selection queries")
	flag.StringVar(&o.save, "save", "", "path to persist the index to")
	flag.StringVar(&o.load, "load", "", "path to load a previously saved index from")
	flag.Float64Var(&o.errTgt, "err", 0.05, "aggregation error target")
	flag.Float64Var(&o.recall, "recall", 0.9, "selection recall target")
	flag.IntVar(&o.par, "parallelism", 0, "worker count for index construction and propagation (<= 0 uses all CPUs; results are identical at every value)")
	flag.IntVar(&o.retries, "retries", 1, "labeler attempts per call, including the first (<= 1 disables retrying)")
	flag.DurationVar(&o.labelTimeout, "label-timeout", 0, "per-call target-labeler deadline (0 disables)")
	flag.Float64Var(&o.faultRate, "fault-rate", 0, "inject transient labeler faults at this per-attempt probability")
	flag.StringVar(&o.labelStore, "label-store", "", "label-store snapshot file the build and the query label through: loaded at startup if present, flushed on -label-flush and when the build ends, so re-running an interrupted build resumes it (empty keeps labels in memory only)")
	flag.DurationVar(&o.labelFlush, "label-flush", 30*time.Second, "background label-store flush period (0 disables the loop; the end of the build still flushes)")
	flag.BoolVar(&o.allowDegraded, "allow-degraded", false, "complete the index around permanently unlabelable records")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a span-tree JSON trace of the run here and print a phase-timing summary")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "tastiquery: %v\n", err)
		os.Exit(1)
	}
}

func run(o runOptions) error {
	// A nil trace (no -trace-out) makes every span call below a no-op.
	var tr *tasti.Trace
	if o.traceOut != "" {
		tr = tasti.NewTrace("tastiquery")
	}

	sp := tr.Root().Child("generate")
	ds, err := tasti.GenerateDataset(o.dsName, o.size, o.seed)
	sp.End()
	if err != nil {
		return err
	}
	cost := tasti.MaskRCNNCost
	if o.dsName == "wikisql" || o.dsName == "common-voice" {
		cost = tasti.HumanCost
	}
	oracle := tasti.NewOracle(ds, "target", cost)
	target := oracle
	if o.faultRate > 0 {
		target = tasti.NewFlakyLabeler(oracle, tasti.FlakyConfig{
			Seed:           o.seed,
			TransientRate:  o.faultRate,
			MaxConsecutive: 3,
		})
	}

	score, pred := querySpec(o.dsName, o.class, o.count)
	var q tasti.Query
	switch o.query {
	case "agg":
		q.Aggregate = &tasti.AggregateQuery{Score: tasti.Scorer{Name: "score", Score: score}, ErrTarget: o.errTgt, Seed: o.seed + 1}
	case "select":
		q.Select = &tasti.SelectQuery{Match: tasti.Scorer{Name: "match", Score: tasti.MatchScore(pred)}, Budget: o.budget, Recall: o.recall, Seed: o.seed + 2}
	case "limit":
		q.Limit = &tasti.LimitQuery{Score: tasti.Scorer{Name: "score", Score: score}, Pred: pred, K: o.k}
	default:
		return fmt.Errorf("unknown query %q (want agg, select, or limit)", o.query)
	}

	// The build labels through this store, and the query after it: labels
	// the build bought — and, with -label-store, every label in the file —
	// cost the query nothing.
	labels := openLabels(o, ds)

	// Queries run on the served index (tasti.SplitIndex); a loaded one must
	// index this very corpus.
	var served *tasti.ShardedIndex
	if o.load != "" {
		err := tasti.ReadSnapshotFile(o.load, func(r io.Reader) error {
			var lerr error
			if served, lerr = tasti.LoadShardedIndex(r); lerr != nil {
				return lerr
			}
			return served.Pin().CheckCorpus(ds.Corpus)
		})
		if err != nil {
			return err
		}
		served.SetParallelism(o.par)
		fmt.Printf("loaded index: %d records, %d representatives\n", served.NumRecords(), served.RepCount())
	} else {
		index, err := buildIndex(o, ds, target, labels, tr.Root())
		if err != nil {
			return err
		}
		fmt.Println(index.Stats.String())
		if served, err = tasti.SplitIndex(index, 1); err != nil {
			return err
		}
	}
	if o.save != "" {
		if err := tasti.WriteFileAtomic(o.save, served.Save); err != nil {
			return err
		}
		fmt.Printf("saved index to %s\n", o.save)
	}

	qs := tr.Root().Child("query/" + o.query)
	v := served.Pin()
	ans, err := v.Run(context.Background(), q, labels.Bind(oracle, nil, "", v.AnnotationOf), qs)
	qs.SetAttr("label_calls", ans.Hits+ans.Misses)
	qs.End()
	if err != nil {
		return err
	}
	switch {
	case q.Aggregate != nil:
		res := ans.Aggregate
		fmt.Printf("aggregate = %.4f ± %.4f (%d target calls)\n", res.Estimate, res.HalfWidth, res.LabelerCalls)
	case q.Select != nil:
		fmt.Printf("selected %d records at threshold %.3f (%d target calls)\n",
			ans.Returned, ans.Selection.Threshold, ans.Selection.OracleCalls)
	default:
		res := ans.Limit
		fmt.Printf("found %d matches in %d target calls: %v\n", len(res.Found), res.OracleCalls, res.Found)
	}
	return writeTrace(tr, o.traceOut)
}

// writeTrace finishes the trace, dumps the span tree as JSON to path, and
// prints the phase-timing summary. A nil trace is a no-op.
func writeTrace(tr *tasti.Trace, path string) error {
	if tr == nil {
		return nil
	}
	tr.Finish()
	if err := tasti.WriteFileAtomic(path, tr.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("\ntrace written to %s\n%s", path, tr.Summary())
	return nil
}

// openLabels returns the label store of ds's corpus, holding what the
// -label-store file holds when one is named and usable.
func openLabels(o runOptions, ds *tasti.Dataset) *tasti.LabelStore {
	labels := tasti.NewLabelStore(tasti.LabelStoreOptions{Corpus: ds.Corpus})
	if o.labelStore == "" {
		return labels
	}
	if _, err := os.Stat(o.labelStore); err == nil {
		if err := tasti.ReadSnapshotFile(o.labelStore, labels.Restore); err != nil {
			fmt.Fprintf(os.Stderr, "tastiquery: label store %s unusable, starting empty: %v\n", o.labelStore, err)
		} else {
			fmt.Printf("resuming from %s: %d labels already paid for\n", o.labelStore, labels.Len())
		}
	}
	return labels
}

// buildIndex constructs the index with the configured reliability policy,
// labeling through labels (openLabels). With -label-store the file is
// flushed while the build runs and once more when it ends, interrupted or
// not, so running the same command again resumes it. Per-phase build spans
// nest under a "build" child of parent (nil disables tracing).
func buildIndex(o runOptions, ds *tasti.Dataset, target tasti.Labeler, labels *tasti.LabelStore, parent *tasti.Span) (*tasti.Index, error) {
	cfg := indexConfig(o.dsName, o.train, o.reps, o.seed)
	cfg.Labels = labels
	cfg.Parallelism = o.par
	cfg.LabelTimeout = o.labelTimeout
	cfg.AllowDegraded = o.allowDegraded
	buildSpan := parent.Child("build")
	defer buildSpan.End()
	cfg.TraceSpan = buildSpan
	if o.retries > 1 {
		cfg.Retry = tasti.DefaultRetryPolicy(o.seed)
		cfg.Retry.MaxAttempts = o.retries
	}
	if o.labelStore == "" {
		return tasti.Build(cfg, ds, target)
	}
	stop := cfg.Labels.FlushEvery(o.labelStore, o.labelFlush, func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "tastiquery: label-store flush failed: %v\n", err)
		}
	})
	index, err := tasti.Build(cfg, ds, target)
	stop()
	var bie *tasti.BuildInterruptedError
	if errors.As(err, &bie) {
		return nil, fmt.Errorf("%w\nre-run the same command to resume from the labels flushed to %s", err, o.labelStore)
	}
	return index, err
}

// indexConfig picks the bucket key for the corpus and assembles the build
// configuration.
func indexConfig(dsName string, train, reps int, seed int64) tasti.Config {
	var key tasti.BucketKey
	switch dsName {
	case "wikisql":
		key = tasti.TextBucketKey()
	case "common-voice":
		key = tasti.SpeechBucketKey()
	default:
		key = tasti.VideoBucketKey(0.5)
	}
	if train <= 0 {
		return tasti.PretrainedConfig(reps, seed)
	}
	return tasti.DefaultConfig(train, reps, key, seed)
}

// querySpec returns the scoring function and predicate the query flags
// describe for the given corpus.
func querySpec(dsName, class string, count int) (tasti.ScoreFunc, func(tasti.Annotation) bool) {
	switch dsName {
	case "wikisql":
		score := func(ann tasti.Annotation) float64 {
			return float64(ann.(tasti.TextAnnotation).NumPredicates)
		}
		pred := func(ann tasti.Annotation) bool {
			return ann.(tasti.TextAnnotation).NumPredicates >= count
		}
		return score, pred
	case "common-voice":
		score := func(ann tasti.Annotation) float64 {
			if strings.EqualFold(ann.(tasti.SpeechAnnotation).Gender, "male") {
				return 1
			}
			return 0
		}
		pred := func(ann tasti.Annotation) bool {
			return strings.EqualFold(ann.(tasti.SpeechAnnotation).Gender, "male")
		}
		return score, pred
	default:
		score := tasti.CountScore(class)
		pred := func(ann tasti.Annotation) bool {
			return ann.(tasti.VideoAnnotation).Count(class) >= count
		}
		return score, pred
	}
}
