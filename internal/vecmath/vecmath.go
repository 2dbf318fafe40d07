// Package vecmath implements the dense linear-algebra engine under the
// embedding models, clustering, ANN search, and score propagation: a
// contiguous row-major Matrix layout, one-to-many blocked distance kernels,
// and bounded top-k selection.
//
// The pairwise kernels (SquaredL2, Dot) and the batch kernels
// (SquaredL2Batch, DotBatch, NormsSquared) all route through one inner
// kernel per operation, chosen once at process start: an AVX2+FMA assembly
// loop on amd64 CPUs that support it, and a 4-way unrolled pure-Go loop
// (which breaks the loop-carried floating-point dependency chain)
// everywhere else. Because the choice is fixed for the process and every
// caller shares it, batch and scalar results are bitwise identical, and any
// parallel chunking of a batch reproduces the same bits. Each kernel
// combines its partial sums in one fixed order — accumulators first, lanes
// low-to-high, tail last — which is the repo-wide determinism contract; see
// docs/ARCHITECTURE.md, "Memory layout & kernels". The kernels under
// internal/nn — AXPY, AXPYRows, the row-tiled DenseRows and Tanh — go
// further: their assembly and portable paths give the same bits as each
// other (Tanh those of math.Tanh in the running process).
package vecmath

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics on length mismatch.
// The accumulation order is fixed per process and shared with DotBatch and
// NormsSquared.
func Dot(a, b []float64) float64 {
	checkLen(a, b)
	return dotKernel(a, b)
}

// dotGeneric is the portable inner-product loop, the fallback when no
// vectorized kernel is available (see kernel_amd64.go for the dispatch).
// b is re-sliced to len(a) to let the compiler drop bounds checks. Every
// product is rounded before its add (float64(x*y)), so no compiler may fuse
// it into a multiply-add: the loop is the same bits on every host.
func dotGeneric(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b []float64) float64 {
	return math.Sqrt(SquaredL2(a, b))
}

// SquaredL2 returns the squared Euclidean distance between a and b. It is
// the hot loop of FPF clustering and table construction. The accumulation
// order is fixed per process and shared with SquaredL2Batch, so the scalar
// and batch paths agree bitwise.
func SquaredL2(a, b []float64) float64 {
	checkLen(a, b)
	return sqL2Kernel(a, b)
}

// sqL2Generic is the portable squared-distance loop, the fallback when no
// vectorized kernel is available. Four accumulators break the loop-carried
// add chain (~3 cycles/element down to ~1 on current x86/arm cores); each
// product is rounded before its add, as in dotGeneric.
func sqL2Generic(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// SquaredL2Batch writes the squared Euclidean distance from q to every row
// of m into dst and returns dst. dst must have m.Rows() entries. Each entry
// is bitwise identical to SquaredL2(q, m.Row(i)): this is the one-to-many
// form of the same kernel, streaming the contiguous backing array instead of
// chasing per-row pointers.
func SquaredL2Batch(q []float64, m Matrix, dst []float64) []float64 {
	if m.dim != len(q) {
		panic(fmt.Sprintf("vecmath: length mismatch: %d vs %d", m.dim, len(q)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("vecmath: dst has %d entries, want %d", len(dst), m.rows))
	}
	sqL2BatchKernel(q, m.data[:m.rows*m.dim], dst)
	return dst
}

// DotBatch writes the inner product of q with every row of m into dst and
// returns dst. dst must have m.Rows() entries; each entry is bitwise
// identical to Dot(q, m.Row(i)).
func DotBatch(q []float64, m Matrix, dst []float64) []float64 {
	if m.dim != len(q) {
		panic(fmt.Sprintf("vecmath: length mismatch: %d vs %d", m.dim, len(q)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("vecmath: dst has %d entries, want %d", len(dst), m.rows))
	}
	d := m.dim
	for r := range dst {
		dst[r] = dotKernel(q, m.data[r*d:r*d+d])
	}
	return dst
}

// NormsSquared writes each row's squared Euclidean norm into dst and returns
// dst; dst must have m.Rows() entries. Each entry is Dot(row, row) with the
// shared dot kernel, which is what makes the |a|²+|b|²−2a·b decomposition
// return exactly 0 for identical rows (x + x − 2x is exact in IEEE 754).
//
// Decomposed distances do NOT bitwise-match SquaredL2 in general; they are
// admitted only where the result is a transient comparison key and never
// persisted or thresholded — see the kernel-choice contract in
// docs/ARCHITECTURE.md.
func NormsSquared(m Matrix, dst []float64) []float64 {
	if len(dst) != m.rows {
		panic(fmt.Sprintf("vecmath: dst has %d entries, want %d", len(dst), m.rows))
	}
	d := m.dim
	for r := range dst {
		row := m.data[r*d : r*d+d]
		dst[r] = dotKernel(row, row)
	}
	return dst
}

// AXPY computes dst += s*a in place: per element, the product rounded to
// float64 and then the sum rounded — never a fused multiply-add — so the
// result is bitwise the same on the assembly and the portable path, and
// bitwise what a scalar `dst[i] += s * a[i]` loop gives on a target that
// does not fuse. It is the one inner operation of MLP training and
// inference (internal/nn): forward passes over transposed weights
// (AXPYRows), gradient rows, and back-propagated deltas are all AXPYs.
func AXPY(dst []float64, s float64, a []float64) {
	checkLen(dst, a)
	axpyKernel(s, a, dst)
}

// axpyGeneric is the portable AXPY loop. The explicit conversion rounds the
// product before the add: without it the Go spec lets a compiler fuse the
// two operations (arm64, ppc64, s390x and GOAMD64=v3 do), which rounds once
// and would break bitwise agreement with the unfused assembly kernel.
func axpyGeneric(s float64, a, dst []float64) {
	dst = dst[:len(a)]
	for i, v := range a {
		dst[i] += float64(s * v)
	}
}

// AXPYRows computes dst += s[0]*m[0:n] + s[1]*m[n:2n] + ... for n =
// len(dst), adding the len(s) rows of the flat row-major m in order: per
// element exactly the operations of len(s) AXPY calls, in their order, so
// the result is bitwise theirs — the assembly path only keeps dst in
// registers across rows instead of reloading it per row. With dst a bias
// vector, s a layer's input and m its input-major weights, this is a dense
// layer's forward pass. It panics unless len(m) == len(s)*len(dst).
func AXPYRows(dst, s, m []float64) {
	if len(m) != len(s)*len(dst) {
		panic(fmt.Sprintf("vecmath: AXPYRows of %d rows into %d columns over %d values", len(s), len(dst), len(m)))
	}
	axpyRowsKernel(s, m, dst)
}

// axpyRowsGeneric is the portable AXPYRows: the per-row loop it is defined
// by.
func axpyRowsGeneric(s, m, dst []float64) {
	n := len(dst)
	for j, v := range s {
		axpyGeneric(v, m[j*n:j*n+n], dst)
	}
}

// DenseRows is a dense layer over a batch of rows: for every row r of x,
//
//	out.Row(r) = b + x.Row(r)[0]*w[0:n] + x.Row(r)[1]*w[n:2n] + ...
//
// for n = len(b), the terms added in order — per row bitwise
// copy(out.Row(r), b) followed by AXPYRows(out.Row(r), x.Row(r), w). The
// assembly path runs the rows four at a time, so each weight row is read
// once per four rows rather than once per row. It panics unless out has
// x.Rows() rows of len(b) and len(w) == x.Dim()*len(b).
func DenseRows(out, x Matrix, w, b []float64) {
	if out.rows != x.rows || out.dim != len(b) || len(w) != x.dim*len(b) {
		panic(fmt.Sprintf("vecmath: DenseRows of %dx%d inputs into %dx%d outputs over %d weights and %d biases",
			x.rows, x.dim, out.rows, out.dim, len(w), len(b)))
	}
	denseRowsKernel(x.data[:x.rows*x.dim], w, b, out.data[:out.rows*out.dim], x.rows, x.dim)
}

// Tanh writes math.Tanh(x[i]) into dst[i] for every i, bit for bit: the
// assembly path evaluates four lanes at once with math.tanh's own
// algorithm, and this process uses it only if it reproduces math.Tanh on a
// probe set at start-up (see useTanhAVX). dst may be x. It panics on length
// mismatch.
func Tanh(dst, x []float64) {
	checkLen(dst, x)
	tanhKernel(x, dst)
}

func checkLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: length mismatch: %d vs %d", len(a), len(b)))
	}
}
