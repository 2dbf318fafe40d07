package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ann"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/query/aggregation"
	"repro/internal/stats"
)

// RunExtraANN is not from the paper: it ablates a design choice this
// reproduction makes (DESIGN.md calls it out). It compares the exact distance
// table against IVF-approximate tables at several probe counts: construction
// wall time versus proxy-score quality and downstream aggregation cost on
// night-street.
func RunExtraANN(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "extra-ann", Title: "ablation: exact vs IVF-approximate distance table, night-street"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}
	ix, err := env.BuildIndex(TastiT)
	if err != nil {
		return nil, err
	}
	sh := ix.Shard(0) // the whole corpus: one shard
	truth := env.Truth(s.AggScore)
	aggOpts := aggregation.DefaultOptions(sc.Seed + 1002)
	aggOpts.ErrTarget = sc.AggErrTarget(s)

	measure := func(name string, table *cluster.Table, buildTime time.Duration) error {
		probe := &core.Index{Embeddings: sh.Embeddings, Table: table, Annotations: sh.Annotations}
		scores, err := probe.Propagate(s.AggScore)
		if err != nil {
			return err
		}
		res, err := aggregation.Estimate(aggOpts, env.DS.Len(), scores, s.AggScore, env.Oracle)
		if err != nil {
			return err
		}
		rep.Add(s.Key, name, "agg target calls", float64(res.LabelerCalls),
			fmt.Sprintf("rho2=%.3f table=%.0fms", stats.RSquared(scores, truth), buildTime.Seconds()*1000))
		return nil
	}

	start := time.Now()
	exact := cluster.BuildTablePar(sh.Embeddings, sh.Table.Reps, sh.Table.K, 0)
	if err := measure("exact", exact, time.Since(start)); err != nil {
		return nil, err
	}
	for _, nprobe := range []int{1, 2, 4, 8} {
		start := time.Now()
		approx, err := ann.BuildTableApprox(sh.Embeddings, sh.Table.Reps, sh.Table.K, nprobe,
			ann.DefaultConfig(len(sh.Table.Reps), sc.Seed))
		if err != nil {
			return nil, err
		}
		if err := measure(fmt.Sprintf("ivf nprobe=%d", nprobe), approx, time.Since(start)); err != nil {
			return nil, err
		}
	}

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}
