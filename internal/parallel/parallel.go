// Package parallel provides the deterministic chunked worker-pool that every
// hot loop in the index pipeline shares: FPF distance sweeps, min-k table
// construction, score propagation, IVF assignment, and batch embedding.
//
// # Determinism
//
// The package's invariant is that results are bitwise identical at every
// worker count. Work over [0, n) is split on a fixed chunk grid that depends
// only on n — never on the worker count or GOMAXPROCS — and per-chunk
// results are combined serially in chunk order after all workers finish.
// Because the grid and the combine order are worker-count independent, a
// reduction (an argmax with a stable tie-break, a chunk-ordered float sum)
// associates the same way whether one worker or sixty-four ran the chunks.
// Callers must keep per-chunk writes disjoint (chunk c writes only indices
// in [lo, hi)) and reductions chunk-ordered; every helper here enforces the
// grid side of that contract.
//
// # Parallelism knob
//
// Every entry point takes a parallelism level p: p <= 0 selects
// runtime.GOMAXPROCS(0) workers (the default everywhere), p == 1 runs the
// chunks serially in chunk order on the calling goroutine, and p > 1 runs up
// to p workers. The knob is surfaced publicly as core.Config.Parallelism and
// the -parallelism flags on cmd/tastibench and cmd/tastiquery.
//
// All functions are safe for concurrent use; they share no state beyond the
// caller's slices.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxChunks caps the chunk grid so per-chunk scratch allocations stay
// bounded; minChunk floors the per-chunk work so chunk dispatch (one atomic
// add) is amortized. Both are fixed constants: changing either changes the
// grid, and with it the association order of chunked float reductions.
const (
	maxChunks = 256
	minChunk  = 64
)

// Workers resolves a parallelism knob value: p > 0 selects p workers, and
// p <= 0 selects runtime.GOMAXPROCS(0).
func Workers(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// Span is one chunk of the fixed grid: the half-open index range [Lo, Hi).
type Span struct {
	Lo, Hi int
}

// Grid partitions [0, n) into contiguous chunks. The partition depends only
// on n, so reductions that combine per-chunk results in chunk order are
// identical at every worker count.
func Grid(n int) []Span {
	if n <= 0 {
		return nil
	}
	chunk := (n + maxChunks - 1) / maxChunks
	if chunk < minChunk {
		chunk = minChunk
	}
	spans := make([]Span, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		spans = append(spans, Span{Lo: lo, Hi: hi})
	}
	return spans
}

// forGrid runs fn(c) for every chunk index c with up to Workers(p) workers.
// Chunks are handed out through an atomic counter, so execution order is
// nondeterministic under p > 1 — callers must write per-chunk results into
// chunk-indexed slots and combine them in chunk order afterwards.
func forGrid(p, numChunks int, fn func(c int)) {
	if numChunks <= 0 {
		return
	}
	workers := Workers(p)
	if workers > numChunks {
		workers = numChunks
	}
	if workers <= 1 {
		for c := 0; c < numChunks; c++ {
			fn(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= numChunks {
					return
				}
				fn(c)
			}
		}()
	}
	wg.Wait()
}

// For runs fn(i) for every i in [0, n) with parallelism p. Iterations must
// be independent: fn may write only state owned by index i.
func For(p, n int, fn func(i int)) {
	ForChunks(p, n, func(_ int, s Span) {
		for i := s.Lo; i < s.Hi; i++ {
			fn(i)
		}
	})
}

// ForChunks runs fn(c, span) for every chunk of Grid(n) with parallelism p.
// Use it instead of For when the body wants per-chunk scratch buffers: fn is
// called once per chunk, so allocations amortize over span.Hi-span.Lo items.
func ForChunks(p, n int, fn func(c int, s Span)) {
	grid := Grid(n)
	forGrid(p, len(grid), func(c int) {
		fn(c, grid[c])
	})
}

// Map runs fn over every chunk of Grid(n) with parallelism p and returns the
// per-chunk results in chunk order. Folding the returned slice left-to-right
// is the deterministic way to reduce a parallel computation.
func Map[T any](p, n int, fn func(c int, s Span) T) []T {
	grid := Grid(n)
	out := make([]T, len(grid))
	forGrid(p, len(grid), func(c int) {
		out[c] = fn(c, grid[c])
	})
	return out
}

// Reduce maps every chunk through fn and folds the per-chunk results in
// chunk order with combine, starting from zero. The fold is serial and
// chunk-ordered, so the result is identical at every worker count.
func Reduce[T any](p, n int, zero T, fn func(c int, s Span) T, combine func(acc, x T) T) T {
	acc := zero
	for _, x := range Map(p, n, fn) {
		acc = combine(acc, x)
	}
	return acc
}
