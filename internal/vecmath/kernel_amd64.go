//go:build amd64

package vecmath

import "math"

// useAVX is decided once at process start: true when the CPU exposes
// AVX2+FMA and the OS saves YMM state. A single per-process choice is what
// keeps the determinism contract intact — every kernel call (scalar or
// batch, any goroutine) takes the same code path, so identical inputs give
// identical bits for the lifetime of the process.
var useAVX = detectAVX()

// useTanhAVX is decided once, after useAVX: true when tanhAVX gives
// math.Tanh's bits on every input of tanhProbes. tanhAVX mirrors math.Exp's
// fused (avxfma) path, which math.Exp takes only when the runtime's own CPU
// feature test allows it — GODEBUG=cpu.fma=off turns that off without
// changing what CPUID reports to detectAVX — so the probe asks math.Tanh
// itself rather than the hardware.
var useTanhAVX = useAVX && tanhMatchesProbes()

// KernelName reports which distance-kernel implementation this process
// dispatches to: "avx2+fma" when the vectorized path is active, "scalar"
// otherwise. The two distance paths differ in their last bits (the
// assembly fuses multiply-adds and sums in another order), each the same
// bits on every call of its process, so cmd/tastiserve exposes the name as
// the kernel label of its build-info gauge and cmd/tastibench stamps it into
// -bench-json reports, making perf numbers — and distance bits —
// attributable to the kernel that produced them.
func KernelName() string {
	if useAVX {
		return "avx2+fma"
	}
	return "scalar"
}

// sqL2Kernel dispatches the shared squared-distance kernel. Callers
// guarantee len(b) >= len(a); the re-slice keeps the assembly's read bounds
// explicit.
func sqL2Kernel(a, b []float64) float64 {
	if useAVX {
		return sqL2AVX(a, b[:len(a)])
	}
	return sqL2Generic(a, b)
}

// sqL2BatchKernel dispatches the one-to-many squared-distance sweep: dst[r]
// is the distance from q to the r-th len(q)-sized row of data. On the AVX
// path the row loop itself lives in assembly, so the millions of per-row
// calls of an index build collapse into one call per sweep; each entry is
// still bitwise identical to the scalar kernel.
func sqL2BatchKernel(q, data, dst []float64) {
	if useAVX {
		sqL2BatchAVX(q, data, dst)
		return
	}
	d := len(q)
	for r := range dst {
		dst[r] = sqL2Generic(q, data[r*d:r*d+d])
	}
}

// dotKernel dispatches the shared inner-product kernel.
func dotKernel(a, b []float64) float64 {
	if useAVX {
		return dotAVX(a, b[:len(a)])
	}
	return dotGeneric(a, b)
}

// axpyKernel dispatches dst[i] += s*a[i]. Unlike the distance kernels the
// two paths here are bitwise identical to each other, not just each to
// itself: neither fuses the multiply into the add (see axpyGeneric), and
// elements never combine.
func axpyKernel(s float64, a, dst []float64) {
	if useAVX {
		axpyAVX(s, a, dst[:len(a)])
		return
	}
	axpyGeneric(s, a, dst)
}

// axpyRowsKernel dispatches dst += sum_j s[j]*m[j*len(dst):(j+1)*len(dst)],
// rows added in order. Callers guarantee len(m) >= len(s)*len(dst). Both
// paths are bitwise the per-row AXPY loop.
func axpyRowsKernel(s, m, dst []float64) {
	if useAVX {
		axpyRowsAVX(s, m[:len(s)*len(dst)], dst)
		return
	}
	axpyRowsGeneric(s, m, dst)
}

// denseRowsKernel dispatches DenseRows: on the AVX path the whole tiles of
// four rows go through denseTilesAVX in one call and the rest row by row
// through the AXPYRows kernel, each row starting from a copy of b.
func denseRowsKernel(x, w, b, out []float64, rows, k int) {
	n, r := len(b), 0
	if useAVX && k > 0 {
		r = rows &^ 3
		if r > 0 {
			denseTilesAVX(x[:r*k], w[:k*n], b, out[:r*n], k)
		}
	}
	for ; r < rows; r++ {
		dst := out[r*n : r*n+n]
		copy(dst, b)
		axpyRowsKernel(x[r*k:r*k+k], w, dst)
	}
}

// tanhKernel dispatches Tanh: blocks of four through tanhAVX where it is
// math.Tanh's twin, every other element through math.Tanh itself.
func tanhKernel(x, dst []float64) {
	i := 0
	if useTanhAVX {
		i = len(x) &^ 3
		tanhAVX(x[:i], dst[:i])
	}
	for ; i < len(x); i++ {
		dst[i] = math.Tanh(x[i])
	}
}

// tanhProbes are inputs on which tanhAVX and math.Tanh agree only if
// math.Exp takes its fused path (the first: Exp(2*0.9185070494009824)
// rounds differently unfused), plus one lane from each other branch of
// math.tanh. Four of them, so one tanhAVX block covers them all.
var tanhProbes = [4]float64{0.9185070494009824, -0.3, 7.5, -45}

func tanhMatchesProbes() bool {
	var got [4]float64
	tanhAVX(tanhProbes[:], got[:])
	for i, x := range tanhProbes {
		if math.Float64bits(got[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}

// maxAVXCodeDim caps the row width the AVX2 code-distance kernel accepts.
// Each 32-bit lane accumulates one VPMADDWD result (at most 2*255² =
// 130050) per 16-byte block, so a lane stays below 2³¹ while dim/16 *
// 130050 < 2³¹, i.e. dim < ~264k; 2¹⁷ leaves a 2× margin. Wider rows fall
// back to the generic int64 loop — both paths are exact integer arithmetic,
// so the dispatch never affects results, only speed.
const maxAVXCodeDim = 1 << 17

// sqCodeDistBatchKernel dispatches the one-to-many code-distance sweep over
// the quantized plane: dst[r] is the squared integer distance from q to the
// r-th len(q)-sized code row of data. Unlike the float kernels the result is
// an exact integer, so generic and AVX2 paths agree to the bit trivially.
func sqCodeDistBatchKernel(q, data []uint8, dst []int64) {
	if useAVX && len(q) <= maxAVXCodeDim {
		sqCodeDistBatchAVX(q, data, dst)
		return
	}
	d := len(q)
	for r := range dst {
		dst[r] = sqCodeDistGeneric(q, data[r*d:r*d+d])
	}
}

// sqCodeDistBatchAVX is the AVX2 one-to-many squared code distance:
// per 16-byte block, bytes widen to i16 (VPMOVZXBW), differences stay in
// i16 range (VPSUBW), and VPMADDWD squares-and-pairs into eight i32 lanes
// accumulated with VPADDD; the reduction widens lanes to i64 before summing
// and a scalar tail handles len%16 bytes.
//
//go:noescape
func sqCodeDistBatchAVX(q, data []uint8, dst []int64)

// sqL2AVX computes the squared L2 distance with AVX2+FMA: 16 float64 per
// iteration into four independent YMM accumulators, combined in a fixed
// order (accumulators, then lanes low-to-high, then a scalar tail).
//
//go:noescape
func sqL2AVX(a, b []float64) float64

// dotAVX is the AVX2+FMA inner product with the same shape and combine
// order as sqL2AVX.
//
//go:noescape
func dotAVX(a, b []float64) float64

// sqL2BatchAVX is the AVX2+FMA one-to-many squared distance; its per-row
// body is instruction-for-instruction the sqL2AVX body.
//
//go:noescape
func sqL2BatchAVX(q, data, dst []float64)

// axpyAVX is the AVX dst[i] += s*a[i]: VMULPD then VADDPD (no FMA), 16
// float64 per iteration, then 4, then a scalar tail.
//
//go:noescape
func axpyAVX(s float64, a, dst []float64)

// axpyRowsAVX is the AVX dst += sum_j s[j]*row j of m: the axpyAVX multiply
// and add per element per row, with dst held in registers across the rows
// of a column block.
//
//go:noescape
func axpyRowsAVX(s, m, dst []float64)

// denseTilesAVX is DenseRows over a multiple of four rows: x holds the
// k-wide input rows (k >= 1), out as many len(b)-wide output rows, w the k
// weight rows of len(b). Per element it is the axpyRowsAVX column started
// from b, so the result is bitwise that kernel's.
//
//go:noescape
func denseTilesAVX(x, w, b, out []float64, k int)

// tanhAVX is math.Tanh over len(x)/4 blocks of four lanes, following
// math.tanh and math.Exp's fused path instruction for instruction.
//
//go:noescape
func tanhAVX(x, dst []float64)

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (the OS-enabled state mask).
func xgetbv0() (eax, edx uint32)

// detectAVX reports whether the AVX kernels are safe to run: the CPU must
// advertise AVX, FMA, and AVX2, and the OS must have enabled XMM+YMM state
// saving (OSXSAVE set and XCR0 bits 1-2 on).
func detectAVX() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, c1, _ := cpuidex(1, 0)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b7, _, _ := cpuidex(7, 0)
	return b7&avx2 != 0
}
