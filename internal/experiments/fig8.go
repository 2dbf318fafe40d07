package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query/aggregation"
	"repro/internal/stats"
)

// RunFig8 reproduces Figure 8: aggregating the average x-position of objects
// in frames, a pure-regression query BlazeIt's proxy models were not
// configured for (the paper could not train one that beat random sampling).
// It compares no proxy, TASTI-PT, and TASTI-T on night-street and taipei.
func RunFig8(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig8", Title: "aggregation of average object x-position: target labeler invocations (lower is better)"}
	for _, key := range []string{"night-street", "taipei-car"} {
		s, err := SettingByKey(key)
		if err != nil {
			return nil, err
		}
		env, err := NewEnv(s, sc)
		if err != nil {
			return nil, err
		}
		if err := fig8Setting(rep, env); err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", key, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

func fig8Setting(rep *Report, env *Env) error {
	s := env.Setting
	score := func(ann dataset.Annotation) float64 { return core.AvgXScore("car")(ann) }
	truth := stats.Mean(env.Truth(score))

	opts := aggregation.DefaultOptions(env.Scale.Seed + 600)
	// Positions live in [0,1] with an sd around 0.15, so the error target
	// scales to that spread.
	opts.ErrTarget = env.Scale.AggErrFrac * 0.15

	run := func(method Variant, scores []float64) error {
		res, err := aggregation.Estimate(opts, env.DS.Len(), scores, score, env.Oracle)
		if err != nil {
			return err
		}
		rep.Add(s.Key, string(method), "target calls", float64(res.LabelerCalls),
			fmt.Sprintf("est=%.3f truth=%.3f", res.Estimate, truth))
		return nil
	}

	if err := run(NoProxy, nil); err != nil {
		return err
	}
	for _, v := range []Variant{TastiPT, TastiT} {
		ix, err := env.BuildIndex(v)
		if err != nil {
			return err
		}
		scores, err := ix.Propagate(score)
		if err != nil {
			return err
		}
		if err := run(v, scores); err != nil {
			return err
		}
	}
	return nil
}
