package core

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query/aggregation"
	"repro/internal/query/limitq"
	"repro/internal/query/supg"
)

// TestAppendRecordsRaceWithQueries exercises the Crack serialization
// contract under the race detector: AppendRecords mutates the index while
// aggregation, SUPG-selection, and limit queries run against it from other
// goroutines, every use serialized by one mutex, as core.Index asks of its
// caller (package shard, which tastiserve serves from, publishes immutable
// versions instead). The contract holds if -race sees no unsynchronized
// state inside the index (lazily grown tables, shared scratch leaking across
// the lock boundary) and every query observes a consistent record count —
// no torn reads of a half-appended batch.
func TestAppendRecordsRaceWithQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const base, appended, batch = 600, 300, 20
	ix, ds, lab := buildTestIndex(t, fastConfig(80, 60), "night-street", base)
	more, err := dataset.Generate("night-street", appended, 99)
	if err != nil {
		t.Fatal(err)
	}

	// mu is the caller-side serialization AppendRecords and Crack document:
	// the appender and every query take it for their whole index
	// interaction, including oracle labeling (the oracle reads ds.Truth,
	// which the appender grows).
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	score := CountScore("car")
	pred := func(a dataset.Annotation) bool { return score(a) > 0 }

	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 0; lo < appended; lo += batch {
			feats := make([][]float64, batch)
			mu.Lock()
			for i := 0; i < batch; i++ {
				rec := more.Records[lo+i]
				feats[i] = rec.Features
				ds.Records = append(ds.Records, dataset.Record{ID: ds.Len(), Features: rec.Features})
				ds.Truth = append(ds.Truth, more.Truth[lo+i])
			}
			ids, aerr := ix.AppendRecords(feats)
			if aerr != nil {
				errs <- aerr
			} else if ids[0] != base+lo {
				t.Errorf("batch at %d got base id %d", lo, ids[0])
			}
			mu.Unlock()
		}
	}()

	runQueries := func(run func() error) {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			mu.Lock()
			if err := run(); err != nil {
				errs <- err
			}
			mu.Unlock()
		}
	}
	wg.Add(3)
	go runQueries(func() error {
		n := ix.NumRecords()
		scores, perr := ix.Propagate(score)
		if perr != nil {
			return perr
		}
		if len(scores) != n {
			t.Errorf("torn read: %d scores for %d records", len(scores), n)
		}
		opts := aggregation.DefaultOptions(1)
		opts.ErrTarget = 0.5
		_, qerr := aggregation.Estimate(opts, n, scores, aggregation.ScoreFunc(score), lab)
		return qerr
	})
	go runQueries(func() error {
		n := ix.NumRecords()
		scores, perr := ix.Propagate(MatchScore(pred))
		if perr != nil {
			return perr
		}
		if len(scores) != n {
			t.Errorf("torn read: %d scores for %d records", len(scores), n)
		}
		_, qerr := supg.RecallTarget(supg.DefaultOptions(120, 2), n, scores, pred, lab)
		return qerr
	})
	go runQueries(func() error {
		scores, perr := ix.Propagate(MatchScore(pred))
		if perr != nil {
			return perr
		}
		_, qerr := limitq.Run(3, scores, nil, pred, lab)
		return qerr
	})

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := ix.NumRecords(); got != base+appended {
		t.Errorf("NumRecords = %d, want %d", got, base+appended)
	}
	if err := ix.Table.Validate(); err != nil {
		t.Fatal(err)
	}
	scores, err := ix.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != base+appended {
		t.Errorf("final propagation covers %d records", len(scores))
	}
}
