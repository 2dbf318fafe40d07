package vecmath

import (
	"fmt"
	"math"
)

// This file implements the quantized embedding plane: a parallel uint8-coded
// copy of a Matrix that candidate-generation scans stream instead of the
// float64 rows, cutting scan-plane memory (and bandwidth) 8x per element.
//
// The recipe is quantize-then-rerank: scan the code plane with the integer
// kernels below to compute code distances, convert each to a conservative
// lower bound on the true Euclidean distance, skip every row whose bound
// proves it cannot beat the current selection, and rerank the survivors
// against the float64 rows with the exact kernels. Because a skipped row is
// one the exact scan would have rejected anyway, every consumer of the plane
// is bitwise identical to the float-only path — the repo-wide determinism
// contract extends to the quantized plane unchanged.
//
// # Bound math
//
// A row x is coded per dimension as c_d = clamp(round((x_d-Offset_d)/Scale_d),
// 0, 255), decoding to x̂_d = Offset_d + Scale_d*c_d. Let e be an upper bound
// on the per-coordinate decode error |x_d - x̂_d| over every row of the plane
// (tracked as MaxErr during quantization, so rows outside the trained range —
// late appends under stale params — simply widen it), and e_q the same bound
// for a query row quantized on the fly. Then for query q and row x with code
// distance D = Σ_d (qc_d - c_d)²:
//
//	‖q - q̂‖ ≤ e_q·√dim,  ‖x - x̂‖ ≤ e·√dim           (coordinate-wise bounds)
//	sMin·√D ≤ ‖q̂ - x̂‖ ≤ sMax·√D                      (per-dim scale bounds)
//	⇒ ‖q - x‖ ≥ sMin·√D − (e + e_q)·√dim             (triangle inequality)
//
// LowerBound below evaluates that last line (clamped at zero). The trainer
// uses one uniform step for every dimension (sMin = sMax), which makes the
// code distance an exact scaled surrogate of the decoded distance and the
// bound as tight as the decode error allows; the per-dimension parameter
// arrays keep the on-disk format general for future per-dimension trainers.
//
// The bound is evaluated in float64 but only ever gates a *skip*: rounding in
// the few float ops here is many orders of magnitude below the quantization
// slack it sits on top of (e ≥ half a grid step), so the skip condition used
// by callers — LowerBound(D) strictly above an exactly-computed admission
// threshold — stays conservative. The property tests in quant_test.go pin
// LowerBound ≤ true distance across random planes, appends, and views.

// QuantParams is the affine code map of a quantized plane: per-dimension
// scale (grid step) and offset, trained once at build time and shared by
// every row quantized into the plane afterwards.
type QuantParams struct {
	// Scale is the per-dimension grid step. The min/max trainer emits one
	// uniform value; zero (a constant corpus) codes every value to 0.
	Scale []float64
	// Offset is the per-dimension grid origin (the trained minimum).
	Offset []float64
}

// Validate checks the parameter arrays describe a usable dim-wide code map.
func (p QuantParams) Validate(dim int) error {
	if len(p.Scale) != dim || len(p.Offset) != dim {
		return fmt.Errorf("vecmath: quant params have %d scales and %d offsets for dim %d",
			len(p.Scale), len(p.Offset), dim)
	}
	for d := 0; d < dim; d++ {
		if !(p.Scale[d] >= 0) || math.IsInf(p.Scale[d], 0) {
			return fmt.Errorf("vecmath: quant scale[%d] = %v not a finite non-negative value", d, p.Scale[d])
		}
		if math.IsNaN(p.Offset[d]) || math.IsInf(p.Offset[d], 0) {
			return fmt.Errorf("vecmath: quant offset[%d] = %v not finite", d, p.Offset[d])
		}
	}
	return nil
}

// TrainQuantParams fits min/max parameters over the rows of m: Offset_d is
// the per-dimension minimum and every Scale_d is the single uniform step
// (largest per-dimension range)/255, so in-range values decode within half a
// step per coordinate. Min/max are order-independent reductions, so the fit
// is deterministic for a given matrix regardless of how callers parallelize
// around it.
func TrainQuantParams(m Matrix) QuantParams {
	dim := m.Dim()
	p := QuantParams{Scale: make([]float64, dim), Offset: make([]float64, dim)}
	if m.Rows() == 0 || dim == 0 {
		return p
	}
	maxs := make([]float64, dim)
	copy(p.Offset, m.Row(0))
	copy(maxs, m.Row(0))
	for i := 1; i < m.Rows(); i++ {
		row := m.Row(i)
		for d, v := range row {
			if v < p.Offset[d] {
				p.Offset[d] = v
			}
			if v > maxs[d] {
				maxs[d] = v
			}
		}
	}
	step := 0.0
	for d := 0; d < dim; d++ {
		if r := maxs[d] - p.Offset[d]; r > step {
			step = r
		}
	}
	step /= 255
	for d := range p.Scale {
		p.Scale[d] = step
	}
	return p
}

// QuantMatrix is the quantized plane of a Matrix: the same row-major layout
// over one contiguous []uint8 backing array (1 byte per element instead of
// 8), plus the trained parameters and the tracked decode-error bound. Like
// Matrix, a QuantMatrix value is a view — copying shares the backing array,
// RowRange carves zero-copy sub-views, and AppendRow follows append
// semantics. The zero value is the disabled plane (Enabled reports false).
type QuantMatrix struct {
	codes  []uint8
	rows   int
	dim    int
	params QuantParams
	// sMin and sMax cache min/max over params.Scale for the bound.
	sMin, sMax float64
	// maxErr bounds |x_d - decoded_d| over every coordinate of every row
	// quantized into the plane. It only ever grows (appends under stale
	// params widen it), which keeps old bounds valid as the plane evolves.
	maxErr float64
	// fitErr is maxErr as QuantizeMatrix left it, over the rows the params
	// were fitted to (snapshots persist it beside maxErr).
	fitErr float64
}

// QuantizeMatrix codes every row of m under p into a fresh plane.
func QuantizeMatrix(m Matrix, p QuantParams) (QuantMatrix, error) {
	if err := p.Validate(m.Dim()); err != nil {
		return QuantMatrix{}, err
	}
	q := QuantMatrix{
		codes:  make([]uint8, m.Rows()*m.Dim()),
		rows:   m.Rows(),
		dim:    m.Dim(),
		params: p,
	}
	q.sMin, q.sMax = scaleBounds(p.Scale)
	for i := 0; i < m.Rows(); i++ {
		lo := i * q.dim
		e := QuantizeRowInto(q.codes[lo:lo+q.dim], m.Row(i), p)
		if e > q.maxErr {
			q.maxErr = e
		}
	}
	q.fitErr = q.maxErr
	return q, nil
}

// QuantMatrixFromParts reassembles a persisted plane, validating shape and
// parameters before anything is trusted; decoders turn the error into their
// typed taxonomy. maxErr must be a valid decode-error bound for the codes and
// fitErr the bound the fit left, at most maxErr (snapshots persist both).
func QuantMatrixFromParts(codes []uint8, rows, dim int, p QuantParams, maxErr, fitErr float64) (QuantMatrix, error) {
	if rows < 0 || dim < 0 {
		return QuantMatrix{}, fmt.Errorf("vecmath: invalid quant shape %dx%d", rows, dim)
	}
	if dim > 0 && rows > int(^uint(0)>>1)/dim {
		return QuantMatrix{}, fmt.Errorf("vecmath: quant shape %dx%d overflows", rows, dim)
	}
	if rows*dim != len(codes) {
		return QuantMatrix{}, fmt.Errorf("vecmath: quant shape %dx%d needs %d codes, have %d",
			rows, dim, rows*dim, len(codes))
	}
	if err := p.Validate(dim); err != nil {
		return QuantMatrix{}, err
	}
	if !(maxErr >= 0) || math.IsInf(maxErr, 0) {
		return QuantMatrix{}, fmt.Errorf("vecmath: quant decode-error bound %v not a finite non-negative value", maxErr)
	}
	if !(fitErr >= 0 && fitErr <= maxErr) {
		return QuantMatrix{}, fmt.Errorf("vecmath: quant fit bound %v outside [0, %v]", fitErr, maxErr)
	}
	sMin, sMax := scaleBounds(p.Scale)
	return QuantMatrix{codes: codes, rows: rows, dim: dim, params: p, sMin: sMin, sMax: sMax, maxErr: maxErr, fitErr: fitErr}, nil
}

// scaleBounds returns min and max over the scales (0, 0 for an empty dim).
func scaleBounds(scale []float64) (sMin, sMax float64) {
	if len(scale) == 0 {
		return 0, 0
	}
	sMin, sMax = scale[0], scale[0]
	for _, s := range scale[1:] {
		if s < sMin {
			sMin = s
		}
		if s > sMax {
			sMax = s
		}
	}
	return sMin, sMax
}

// QuantizeRowInto codes row into dst (len(dst) == len(row) == dim of p) and
// returns the row's max per-coordinate decode error. It is the single code
// map every producer shares — build-time plane construction, appends, and
// on-the-fly query quantization — so identical inputs always yield identical
// codes.
func QuantizeRowInto(dst []uint8, row []float64, p QuantParams) float64 {
	if len(dst) != len(row) {
		panic(fmt.Sprintf("vecmath: quantizing a %d-wide row into %d codes", len(row), len(dst)))
	}
	maxErr := 0.0
	for d, v := range row {
		s, off := p.Scale[d], p.Offset[d]
		var c float64
		if s > 0 {
			c = math.Round((v - off) / s)
			if c < 0 {
				c = 0
			} else if c > 255 {
				c = 255
			}
		}
		dst[d] = uint8(c)
		if e := math.Abs(v - (off + float64(s*c))); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// Enabled reports whether the plane holds a trained code map. The zero value
// (and a plane decoded from a snapshot without a quant frame) is disabled.
func (q QuantMatrix) Enabled() bool { return q.params.Scale != nil }

// Rows returns the number of coded rows.
func (q QuantMatrix) Rows() int { return q.rows }

// Dim returns the row width.
func (q QuantMatrix) Dim() int { return q.dim }

// Params returns the trained code map (the live arrays, not a copy).
func (q QuantMatrix) Params() QuantParams { return q.params }

// MaxErr returns the tracked per-coordinate decode-error bound.
func (q QuantMatrix) MaxErr() float64 { return q.maxErr }

// FitErr returns the decode-error bound as the fit left it, before appends.
func (q QuantMatrix) FitErr() float64 { return q.fitErr }

// Widened reports whether a row appended since the plane was coded widened
// its decode-error bound: the one way a refit of the params could make the
// plane prune better.
func (q QuantMatrix) Widened() bool { return q.maxErr > q.fitErr }

// Codes returns the flat code array, len Rows()*Dim(). Live storage, not a
// copy — snapshot encoding reads it directly.
func (q QuantMatrix) Codes() []uint8 { return q.codes }

// Bytes returns the plane's resident code bytes — the memory the scan
// actually streams, reported by /admin/status against the float64 plane.
func (q QuantMatrix) Bytes() int64 { return int64(len(q.codes)) }

// Row returns row i's codes as a zero-copy subslice, capacity clipped to the
// row like Matrix.Row.
func (q QuantMatrix) Row(i int) []uint8 {
	lo := i * q.dim
	return q.codes[lo : lo+q.dim : lo+q.dim]
}

// RowRange returns the view [lo, hi) of the rows, sharing codes, params, and
// the (conservative, plane-wide) decode-error bound. Like Matrix.RowRange the
// final view's capacity is not clipped.
func (q QuantMatrix) RowRange(lo, hi int) QuantMatrix {
	if lo < 0 || hi < lo || hi > q.rows {
		panic(fmt.Sprintf("vecmath: quant row range [%d,%d) out of [0,%d)", lo, hi, q.rows))
	}
	out := q
	out.codes = q.codes[lo*q.dim : hi*q.dim]
	out.rows = hi - lo
	return out
}

// Clone returns a deep copy with freshly allocated codes and parameter
// arrays, for the index's deep clone.
func (q QuantMatrix) Clone() QuantMatrix {
	out := q
	out.codes = append([]uint8(nil), q.codes...)
	out.params = QuantParams{
		Scale:  append([]float64(nil), q.params.Scale...),
		Offset: append([]float64(nil), q.params.Offset...),
	}
	return out
}

// AppendRow quantizes row under the trained params and appends it, growing
// the code array with append semantics and widening the decode-error bound if
// the row falls outside the trained range — which is what keeps every bound
// computed against the plane valid for rows ingested after training.
func (q *QuantMatrix) AppendRow(row []float64) {
	if len(row) != q.dim {
		panic(fmt.Sprintf("vecmath: appending a %d-wide row to a %d-wide quant plane", len(row), q.dim))
	}
	lo := len(q.codes)
	q.codes = append(q.codes, make([]uint8, q.dim)...)
	if e := QuantizeRowInto(q.codes[lo:lo+q.dim], row, q.params); e > q.maxErr {
		q.maxErr = e
	}
	q.rows++
}

// LowerBound converts a code distance against this plane's rows into a
// conservative lower bound on the true Euclidean distance, given the query
// row's own decode error (from QuantizeRowInto). See the bound derivation in
// the file comment. The pointer receiver keeps the per-row call in a scan
// loop from copying the plane's header.
func (q *QuantMatrix) LowerBound(codeDist int64, queryErr float64) float64 {
	lb := float64(q.sMin*math.Sqrt(float64(codeDist))) - float64((q.maxErr+queryErr)*math.Sqrt(float64(q.dim)))
	if lb <= 0 {
		return 0
	}
	// The bound itself (and the exact distance a caller compares it to) is
	// evaluated in float64, where a handful of rounding steps can push lb a
	// few ulps above the mathematically exact value. Deflating by a fixed
	// relative margin many orders of magnitude above that rounding — and as
	// many below the quantization slack — keeps the skip condition strictly
	// conservative without measurable pruning loss.
	return lb * (1 - 1e-9)
}

// SqCodeDist returns the squared integer distance between two code rows —
// the quantity the batch kernel computes per row. Integer arithmetic is
// exact, so the generic and AVX2 paths agree to the bit by construction.
func SqCodeDist(a, b []uint8) int64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: length mismatch: %d vs %d", len(a), len(b)))
	}
	return sqCodeDistGeneric(a, b)
}

// sqCodeDistGeneric is the portable code-distance loop. Four accumulators
// mirror the float kernels' shape; each per-coordinate square is at most
// 255² so an int64 accumulator never overflows at any dim.
func sqCodeDistGeneric(a, b []uint8) int64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := int64(a[i]) - int64(b[i])
		d1 := int64(a[i+1]) - int64(b[i+1])
		d2 := int64(a[i+2]) - int64(b[i+2])
		d3 := int64(a[i+3]) - int64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := int64(a[i]) - int64(b[i])
		s += d * d
	}
	return s
}

// CodeDistBatch writes the squared code distance from q to every row of m
// into dst and returns dst. dst must have m.Rows() entries; each entry equals
// SqCodeDist(q, m.Row(i)) exactly on every dispatch path.
func CodeDistBatch(q []uint8, m QuantMatrix, dst []int64) []int64 {
	if m.dim != len(q) {
		panic(fmt.Sprintf("vecmath: length mismatch: %d vs %d", m.dim, len(q)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("vecmath: dst has %d entries, want %d", len(dst), m.rows))
	}
	sqCodeDistBatchKernel(q, m.codes[:m.rows*m.dim], dst)
	return dst
}
