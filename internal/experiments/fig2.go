package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/labeler"
)

// ConstructionCost breaks down simulated index-construction time the way
// Figure 2 does. Target-labeler and embedding-DNN time is simulated from the
// calibrated per-call costs (Section 3.4); clustering time is the measured
// wall clock of the FPF + distance-table computation we actually run.
type ConstructionCost struct {
	// TrainTargetSeconds is target-labeler time spent labeling the triplet
	// training set.
	TrainTargetSeconds float64
	// BucketTargetSeconds is target-labeler time spent labeling cluster
	// representatives.
	BucketTargetSeconds float64
	// EmbeddingSeconds is embedding-DNN time: the full-corpus embedding
	// passes plus triplet-training compute.
	EmbeddingSeconds float64
	// ClusterSeconds is measured FPF clustering + distance-table time.
	ClusterSeconds float64
}

// Total sums the phases.
func (c ConstructionCost) Total() float64 {
	return c.TrainTargetSeconds + c.BucketTargetSeconds + c.EmbeddingSeconds + c.ClusterSeconds
}

// SimulateConstructionCost converts the statistics of an index built with cfg
// into the Figure 2 breakdown for a target labeler with the given per-call
// cost.
func SimulateConstructionCost(cfg core.Config, st core.BuildStats, numRecords int, target labeler.CostModel) ConstructionCost {
	embedPasses := 1.0
	if cfg.DoTrain {
		embedPasses = 2 // the pre-trained pass for mining plus the final pass
	}
	embedSeconds := embedPasses * float64(numRecords) * labeler.EmbeddingCost.Seconds
	if cfg.DoTrain {
		// A training iteration costs about a forward plus a backward pass on
		// each of the triplet's three records (Section 3.4's assumption that
		// training cost is proportional to the forward pass).
		tcfg := cfg.Train
		batch := tcfg.BatchSize
		if batch == 0 {
			batch = 32
		}
		embedSeconds += float64(st.TripletSteps) * float64(batch) * 3 * 2 * labeler.EmbeddingCost.Seconds
	}
	return ConstructionCost{
		TrainTargetSeconds:  float64(st.TrainLabelCalls) * target.Seconds,
		BucketTargetSeconds: float64(st.RepLabelCalls) * target.Seconds,
		EmbeddingSeconds:    embedSeconds,
		ClusterSeconds:      st.ClusterWall.Seconds(),
	}
}

// RunFig2 reproduces Figure 2: the index-construction time breakdown for
// TASTI versus BlazeIt's target-model annotated set (TMAS) on the
// night-street setting. BlazeIt's cost is the target-labeler time to
// annotate the TMAS; TASTI's is its (much smaller) labeling budget plus
// embedding-DNN compute.
func RunFig2(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig2", Title: "index construction time breakdown, night-street (seconds, simulated target/embedding costs)"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}

	// BlazeIt: annotate the TMAS with the target labeler.
	tmasSeconds := float64(sc.ProxyTMAS) * s.TargetCost.Seconds
	rep.Add(s.Key, "BlazeIt", "TMAS s", tmasSeconds, fmt.Sprintf("%d target calls", sc.ProxyTMAS))
	rep.Add(s.Key, "BlazeIt", "total s", tmasSeconds, "")

	cfg := env.IndexConfig(TastiT)
	ix, err := env.BuildIndexWith(cfg)
	if err != nil {
		return nil, err
	}
	st := ix.Pin().Stats
	cost := SimulateConstructionCost(cfg, st, env.DS.Len(), s.TargetCost)
	rep.Add(s.Key, "TASTI-T", "train target DNN s", cost.TrainTargetSeconds, fmt.Sprintf("%d target calls", st.TrainLabelCalls))
	rep.Add(s.Key, "TASTI-T", "bucket target DNN s", cost.BucketTargetSeconds, fmt.Sprintf("%d target calls", st.RepLabelCalls))
	rep.Add(s.Key, "TASTI-T", "embedding s", cost.EmbeddingSeconds, "embedding DNN passes + triplet training")
	rep.Add(s.Key, "TASTI-T", "cluster s", cost.ClusterSeconds, "measured FPF + distance table")
	rep.Add(s.Key, "TASTI-T", "total s", cost.Total(), "")

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}
