//go:build race

package shard_test

// raceEnabled reports whether this test binary was built with the race
// detector. TestServedHitCostFollowsSample skips under -race: the detector
// makes sync.Pool drop a random share of what is put back, so the pooled
// buffers a request reuses are reallocated at random.
const raceEnabled = true
