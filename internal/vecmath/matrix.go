package vecmath

import "fmt"

// Matrix is a dense row-major matrix over one contiguous []float64 backing
// array: row i occupies data[i*dim : (i+1)*dim]. It is the embedding layout
// every distance hot path in the pipeline operates on — one allocation for
// the whole corpus instead of one per row, sequential memory for the blocked
// kernels (SquaredL2Batch, DotBatch, NormsSquared), and zero-copy row views.
//
// A Matrix value is a view (slice header plus shape): copying it shares the
// backing array, exactly like copying a slice. AppendRow is the only mutating
// method and follows append semantics — it may reallocate, so callers that
// grow a matrix must use the *Matrix receiver's updated value.
type Matrix struct {
	data []float64
	rows int
	dim  int
}

// NewMatrix allocates a zeroed rows×dim matrix in one contiguous block.
func NewMatrix(rows, dim int) Matrix {
	if rows < 0 || dim < 0 {
		panic(fmt.Sprintf("vecmath: invalid matrix shape %dx%d", rows, dim))
	}
	return Matrix{data: make([]float64, rows*dim), rows: rows, dim: dim}
}

// FromRows copies a [][]float64 row-major matrix into contiguous form. It
// panics on ragged input; use MatrixFromFlat-style validation (or
// TryFromRows) for untrusted data.
func FromRows(rows [][]float64) Matrix {
	m, err := TryFromRows(rows)
	if err != nil {
		panic("vecmath: " + err.Error())
	}
	return m
}

// TryFromRows is FromRows with an error instead of a panic on ragged input,
// for decoders that convert untrusted data.
func TryFromRows(rows [][]float64) (Matrix, error) {
	if len(rows) == 0 {
		return Matrix{}, nil
	}
	dim := len(rows[0])
	m := NewMatrix(len(rows), dim)
	for i, r := range rows {
		if len(r) != dim {
			return Matrix{}, fmt.Errorf("ragged rows: row %d has %d entries, row 0 has %d", i, len(r), dim)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// MatrixFromFlat wraps an existing flat backing array as a rows×dim matrix,
// validating the shape (including rows*dim overflow) against the array
// length. The matrix shares data; it does not copy.
func MatrixFromFlat(data []float64, rows, dim int) (Matrix, error) {
	if rows < 0 || dim < 0 {
		return Matrix{}, fmt.Errorf("vecmath: invalid matrix shape %dx%d", rows, dim)
	}
	if dim > 0 && rows > int(^uint(0)>>1)/dim {
		return Matrix{}, fmt.Errorf("vecmath: matrix shape %dx%d overflows", rows, dim)
	}
	if rows*dim != len(data) {
		return Matrix{}, fmt.Errorf("vecmath: matrix shape %dx%d needs %d entries, backing array has %d",
			rows, dim, rows*dim, len(data))
	}
	return Matrix{data: data, rows: rows, dim: dim}, nil
}

// Rows returns the number of rows.
func (m Matrix) Rows() int { return m.rows }

// Dim returns the row width.
func (m Matrix) Dim() int { return m.dim }

// Row returns row i as a zero-copy subslice of the backing array. The
// capacity is clipped to the row, so an append on the result cannot clobber
// the next row.
func (m Matrix) Row(i int) []float64 {
	lo := i * m.dim
	return m.data[lo : lo+m.dim : lo+m.dim]
}

// RowRange returns the view [lo, hi) of the rows, sharing the backing array.
func (m Matrix) RowRange(lo, hi int) Matrix {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("vecmath: row range [%d,%d) out of [0,%d)", lo, hi, m.rows))
	}
	return Matrix{data: m.data[lo*m.dim : hi*m.dim], rows: hi - lo, dim: m.dim}
}

// Data returns the flat backing array, len Rows()*Dim(). It is the live
// storage, not a copy — snapshot encoding reads it directly.
func (m Matrix) Data() []float64 { return m.data }

// AppendRow copies row onto the end of the matrix, growing the backing array
// with append semantics. Appending to an empty matrix sets the row width.
func (m *Matrix) AppendRow(row []float64) {
	if m.rows == 0 && m.dim == 0 {
		m.dim = len(row)
	}
	if len(row) != m.dim {
		panic(fmt.Sprintf("vecmath: appending a %d-wide row to a %d-wide matrix", len(row), m.dim))
	}
	m.data = append(m.data, row...)
	m.rows++
}

// GatherRows copies the given rows of m into a new contiguous matrix — the
// one-time gather that turns a scattered index set (cluster representatives,
// IVF cell members) into a block the batched kernels can stream over.
func GatherRows(m Matrix, idx []int) Matrix {
	out := NewMatrix(len(idx), m.dim)
	for i, j := range idx {
		copy(out.Row(i), m.Row(j))
	}
	return out
}
