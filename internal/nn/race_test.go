//go:build race

package nn

// raceEnabled reports whether this test binary was built with the race
// detector. TestForwardRowsReusesItsTiles skips under -race: the detector
// makes sync.Pool drop a random share of what is put back, so the pooled
// tile buffers are reallocated at random.
const raceEnabled = true
