package experiments

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/labeler/store"
	"repro/internal/metrics"
	"repro/internal/query/aggregation"
	"repro/internal/query/supg"
	"repro/internal/shard"
)

// RunTable3 reproduces Table 3: index cracking. On night-street and taipei,
// one query runs first and every target-labeler result it paid for is
// cracked into the index as a new representative; the second query then runs
// on the improved index. Rows report the second query's metric after
// cracking, with the uncracked result in the notes.
func RunTable3(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "table3", Title: "cracking: second-query performance after inserting first-query labels (uncracked in notes)"}
	for _, key := range []string{"night-street", "taipei-car"} {
		s, err := SettingByKey(key)
		if err != nil {
			return nil, err
		}
		env, err := NewEnv(s, sc)
		if err != nil {
			return nil, err
		}
		if err := table3Setting(rep, env); err != nil {
			return nil, fmt.Errorf("table3 %s: %w", key, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

func table3Setting(rep *Report, env *Env) error {
	s := env.Setting
	selTruth := env.TruthMatches(s.SelPred)
	aggOpts := aggregation.DefaultOptions(env.Scale.Seed + 800)
	aggOpts.ErrTarget = env.Scale.AggErrTarget(s)
	supgOpts := supg.DefaultOptions(env.Scale.SUPGBudget(s), env.Scale.Seed+801)

	// runAgg executes the aggregation query against the version of ix it
	// pins and returns the labeler calls plus everything the query labeled
	// (for cracking): what its label store holds afterwards.
	runAgg := func(ix *shard.Index) (int64, map[int]dataset.Annotation, error) {
		scores, err := ix.Pin().PropagateK(s.AggScore, 5)
		if err != nil {
			return 0, nil, err
		}
		labels := store.New(store.Options{})
		res, err := aggregation.Estimate(aggOpts, env.DS.Len(), scores, s.AggScore, labels.Bind(env.Oracle, nil, "", nil))
		if err != nil {
			return 0, nil, err
		}
		return res.LabelerCalls, labels.Annotations(), nil
	}

	// runSUPG executes the selection query against ix and returns its FPR
	// plus everything it labeled.
	runSUPG := func(ix *shard.Index) (float64, map[int]dataset.Annotation, error) {
		scores, err := ix.Propagate(BoolScore(s.SelPred))
		if err != nil {
			return 0, nil, err
		}
		labels := store.New(store.Options{})
		res, err := supg.RecallTarget(supgOpts, env.DS.Len(), scores, s.SelPred, labels.Bind(env.Oracle, nil, "", nil))
		if err != nil {
			return 0, nil, err
		}
		c := metrics.NewConfusion(selTruth, res.Returned)
		return c.FalsePositiveRate() * 100, labels.Annotations(), nil
	}

	// Agg first, then SUPG on the cracked index.
	ix, err := env.BuildSelectionIndex(TastiT)
	if err != nil {
		return err
	}
	fprBefore, _, err := runSUPG(ix)
	if err != nil {
		return err
	}
	_, aggLabels, err := runAgg(ix)
	if err != nil {
		return err
	}
	ix.CrackAll(aggLabels)
	fprAfter, _, err := runSUPG(ix)
	if err != nil {
		return err
	}
	rep.Add(s.Key, "agg then SUPG", "FPR % after crack", fprAfter,
		fmt.Sprintf("before=%.1f%% cracked=%d labels", fprBefore, len(aggLabels)))

	// SUPG first, then agg on the cracked index (fresh index so the first
	// experiment's cracking does not leak in).
	ix2, err := env.BuildSelectionIndex(TastiT)
	if err != nil {
		return err
	}
	callsBefore, _, err := runAgg(ix2)
	if err != nil {
		return err
	}
	_, supgLabels, err := runSUPG(ix2)
	if err != nil {
		return err
	}
	ix2.CrackAll(supgLabels)
	callsAfter, _, err := runAgg(ix2)
	if err != nil {
		return err
	}
	rep.Add(s.Key, "SUPG then agg", "target calls after crack", float64(callsAfter),
		fmt.Sprintf("before=%d cracked=%d labels", callsBefore, len(supgLabels)))
	return nil
}
