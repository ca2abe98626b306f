// Package linalg is the dense/sparse linear-algebra substrate behind the
// paper's out-of-core workload: column-block dense operations, modified
// Gram-Schmidt orthonormalization, a cyclic Jacobi symmetric eigensolver
// (used for Rayleigh-Ritz and as the dense reference), CSR sparse matrices
// with parallel block SpMM, and the LOBPCG iteration itself (§2.1: "for
// computing the eigenpairs, the locally optimal block preconditioned
// conjugate gradient (LOBPCG) algorithm is used").
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Col extracts column j as a fresh slice.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// SetCol assigns column j from v.
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.Rows {
		panic("linalg: SetCol length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Set(i, j, v[i])
	}
}

// Mul returns m × b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dims %dx%d × %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		crow := c.Data[i*b.Cols : (i+1)*b.Cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}

// TransMul returns mᵀ × b (the k×k Gram-style products of block methods).
func (m *Matrix) TransMul(b *Matrix) *Matrix {
	if m.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: TransMul dims %dx%d ᵀ× %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(m.Cols, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		for p, ap := range arow {
			if ap == 0 {
				continue
			}
			crow := c.Data[p*b.Cols : (p+1)*b.Cols]
			for q := range crow {
				crow[q] += ap * brow[q]
			}
		}
	}
	return c
}

// HCat returns [blocks...] joined left to right. Nil blocks are skipped.
func HCat(blocks ...*Matrix) *Matrix {
	rows, cols := 0, 0
	for _, b := range blocks {
		if b == nil {
			continue
		}
		if rows == 0 {
			rows = b.Rows
		} else if b.Rows != rows {
			panic("linalg: HCat row mismatch")
		}
		cols += b.Cols
	}
	out := NewMatrix(rows, cols)
	at := 0
	for _, b := range blocks {
		if b == nil {
			continue
		}
		for i := 0; i < rows; i++ {
			copy(out.Data[i*cols+at:i*cols+at+b.Cols], b.Data[i*b.Cols:(i+1)*b.Cols])
		}
		at += b.Cols
	}
	return out
}

// Slice returns the column block [from, to).
func (m *Matrix) Slice(from, to int) *Matrix {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("linalg: Slice [%d,%d) of %d cols", from, to, m.Cols))
	}
	out := NewMatrix(m.Rows, to-from)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Cols:(i+1)*out.Cols], m.Data[i*m.Cols+from:i*m.Cols+to])
	}
	return out
}

// ColNorm returns the Euclidean norm of column j.
func (m *Matrix) ColNorm(j int) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		v := m.At(i, j)
		s += v * v
	}
	return math.Sqrt(s)
}

// FrobeniusNorm returns sqrt(sum of squares).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element, zero for empty matrices.
func (m *Matrix) MaxAbs() float64 {
	var s float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Identity returns the n×n identity.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
