package shard_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/shard"
)

// Example serves a built index with four shard views and shows the served
// propagation is bitwise the built index's own: the views split no query.
func Example() {
	ds, err := dataset.Generate("night-street", 400, 1)
	if err != nil {
		panic(err)
	}
	oracle := labeler.NewOracle(ds, "mask-rcnn", labeler.MaskRCNNCost)
	index, err := core.Build(core.PretrainedConfig(40, 2), ds, oracle)
	if err != nil {
		panic(err)
	}

	// Score once on the built index, then hand it to the serving layer —
	// Split takes ownership — and score again.
	before, err := index.Propagate(core.CountScore("car"))
	if err != nil {
		panic(err)
	}
	sharded, err := shard.Split(index, 4)
	if err != nil {
		panic(err)
	}
	after, err := sharded.Propagate(core.CountScore("car"))
	if err != nil {
		panic(err)
	}

	identical := len(before) == len(after)
	for i := range before {
		if before[i] != after[i] {
			identical = false
		}
	}
	fmt.Printf("shards: %d\n", sharded.NumShards())
	fmt.Printf("records: %d\n", sharded.NumRecords())
	fmt.Printf("bitwise identical: %v\n", identical)
	// Output:
	// shards: 4
	// records: 400
	// bitwise identical: true
}
