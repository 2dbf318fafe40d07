//go:build !amd64

package vecmath

import "math"

// Without a vectorized implementation for the platform, the shared kernels
// are the portable unrolled loops.

// KernelName reports which distance-kernel implementation this process
// dispatches to; platforms without a vectorized path always run "scalar".
func KernelName() string { return "scalar" }

func sqL2Kernel(a, b []float64) float64 { return sqL2Generic(a, b) }

func sqL2BatchKernel(q, data, dst []float64) {
	d := len(q)
	for r := range dst {
		dst[r] = sqL2Generic(q, data[r*d:r*d+d])
	}
}

func dotKernel(a, b []float64) float64 { return dotGeneric(a, b) }

func axpyKernel(s float64, a, dst []float64) { axpyGeneric(s, a, dst) }

func axpyRowsKernel(s, m, dst []float64) { axpyRowsGeneric(s, m, dst) }

func sqCodeDistBatchKernel(q, data []uint8, dst []int64) {
	d := len(q)
	for r := range dst {
		dst[r] = sqCodeDistGeneric(q, data[r*d:r*d+d])
	}
}

func denseRowsKernel(x, w, b, out []float64, rows, k int) {
	n := len(b)
	for r := 0; r < rows; r++ {
		dst := out[r*n : r*n+n]
		copy(dst, b)
		axpyRowsGeneric(x[r*k:r*k+k], w, dst)
	}
}

func tanhKernel(x, dst []float64) {
	for i, v := range x {
		dst[i] = math.Tanh(v)
	}
}
