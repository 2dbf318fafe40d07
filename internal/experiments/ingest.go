package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/labeler"
	"repro/internal/query/aggregation"
)

// RunIngest is the streaming-ingest experiment (not in the paper): it
// measures sustained append throughput and ack latency through the full
// durability path — WAL frame encode, fsync, ack, apply into the index —
// while an aggregation query storm runs against the same index the way
// tastiserve runs them: appends are writes on the one-shard index BuildIndex
// serves, each query reads the version it pinned, and nothing else orders the
// two. Acks are durability receipts: the latency includes the fsync.
func RunIngest(sc Scale, w io.Writer) (*Report, error) {
	const (
		appended = 512
		batch    = 32
	)
	rep := &Report{ID: "ingest", Title: "streaming append throughput and ack latency under a query storm, night-street"}
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
	more, err := dataset.Generate(s.Dataset, appended, sc.Seed+500)
	if err != nil {
		return nil, err
	}

	walDir, err := os.MkdirTemp("", "tasti-ingest-exp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir) //nolint:errcheck // best-effort temp cleanup
	wal, err := ingest.OpenWAL(walDir, ix.NumRecords(), ingest.WALOptions{})
	if err != nil {
		return nil, err
	}

	// The apply path publishes each extended corpus view whole, before the
	// index version that makes its records queryable, so the storm's oracle
	// can label every record of whatever version it pinned.
	var corpus atomic.Pointer[dataset.Dataset]
	corpus.Store(env.DS)
	oracle := labeler.NewLiveOracle(corpus.Load, s.TargetName, s.TargetCost)
	ing, err := ingest.New(ingest.Config{
		WAL: wal,
		Apply: func(b ingest.Batch) error {
			ds := *corpus.Load()
			for i := range b.Features {
				if id := b.Base + i; id == ds.Len() {
					ds.Records = append(ds.Records, dataset.Record{ID: id, Features: b.Features[i]})
					ds.Truth = append(ds.Truth, b.Anns[i])
				}
			}
			corpus.Store(&ds)
			_, aerr := ix.AppendRecords(b.Features)
			return aerr
		},
	})
	if err != nil {
		return nil, err
	}
	ing.Start()

	// The storm: aggregation queries back to back until ingest finishes.
	done := make(chan struct{})
	var queries int
	var stormErr error
	var stormWG sync.WaitGroup
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		score := core.CountScore("car")
		opts := aggregation.DefaultOptions(sc.Seed + 1)
		opts.ErrTarget = 0.2
		for {
			select {
			case <-done:
				return
			default:
			}
			v := ix.Pin()
			scores, perr := v.Propagate(score)
			if perr == nil {
				_, perr = aggregation.Estimate(opts, v.NumRecords(), scores, aggregation.ScoreFunc(score), oracle)
			}
			if perr != nil {
				stormErr = perr
				return
			}
			queries++
		}
	}()

	lats := make([]time.Duration, 0, appended/batch)
	start := time.Now()
	for lo := 0; lo < appended; lo += batch {
		feats := make([][]float64, batch)
		anns := make([]dataset.Annotation, batch)
		for i := 0; i < batch; i++ {
			feats[i] = more.Records[lo+i].Features
			anns[i] = more.Truth[lo+i]
		}
		sent := time.Now()
		if _, err := ing.Submit(context.Background(), feats, anns); err != nil {
			close(done)
			return nil, fmt.Errorf("experiments: ingest submit: %w", err)
		}
		lats = append(lats, time.Since(sent))
	}
	elapsed := time.Since(start)
	if err := ing.Close(); err != nil {
		close(done)
		return nil, err
	}
	close(done)
	stormWG.Wait()
	if stormErr != nil {
		return nil, fmt.Errorf("experiments: query storm: %w", stormErr)
	}
	if got := ix.NumRecords(); got != corpus.Load().Len() || got != sc.CorpusSize(s)+appended {
		return nil, fmt.Errorf("experiments: index covers %d records, want %d", got, sc.CorpusSize(s)+appended)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	msOf := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	rep.Add(s.Key, "ingest", "appended records", appended, fmt.Sprintf("batches of %d, fsync per frame", batch))
	rep.Add(s.Key, "ingest", "append rec/s", float64(appended)/elapsed.Seconds(), "sustained, durability included")
	rep.Add(s.Key, "ingest", "ack p50 ms", msOf(lats[len(lats)/2]), "WAL encode + fsync + ack")
	rep.Add(s.Key, "ingest", "ack p99 ms", msOf(lats[len(lats)*99/100]), "")
	rep.Add(s.Key, "ingest", "storm queries", float64(queries), "aggregation queries completed during ingest")

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}
