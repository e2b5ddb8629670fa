// Package linalg provides the dense linear-algebra kernels the
// reaching-probability engine needs: row-major matrices, LU
// factorisation with partial pivoting, solves, inversion, and
// matrix multiplication.
//
// # Kernel architecture
//
// The O(n³) kernels are built around a packed-panel, register-blocked
// micro-kernel (see gemm.go): operands are packed into contiguous
// panel buffers and driven through a 4×8 multi-accumulator micro-kernel
// (AVX2+FMA assembly on amd64, selected at start-up by CPUID). LU
// factorisation is blocked right-looking — panel factorisation, a
// triangular solve of the panel's row block, and a trailing-submatrix
// update through the same GEMM kernel — and inversion/multi-RHS solves
// are blocked forward/back substitutions whose bulk is again GEMM.
// On architectures without the assembly micro-kernel every entry point
// falls back to the scalar reference kernels (reference.go), which are
// also kept as the parity oracle for the property tests.
//
// # Allocation contract
//
// The convenience entry points (NewMatrix, Factor, Invert, Mul) allocate
// their results. Every one of them is backed by an in-place kernel that
// does not allocate at steady state:
//
//	FactorInto   factorises into an existing LU's storage
//	Solve        solves using the LU's internal scratch
//	SolveMatInto solves a multi-RHS system into an existing matrix
//	InverseInto  writes A⁻¹ into an existing matrix
//	MulInto      writes A·B into an existing matrix (packed/blocked)
//	MulVec/MulVecT multiply into caller-provided vectors
//
// A Workspace pools vectors, matrices, LU factorisations, and GEMM
// packing buffers so a caller that computes in a loop (the reach
// engine factorises and multiplies once per CFG) reuses the same
// storage on every iteration. Workspaces, LU values, and the in-place
// kernels are NOT safe for concurrent use; give each goroutine its
// own. The optional parallel tile fan-out (MulIntoSched, LU.Sched) is
// deterministic: tasks write disjoint output tiles and the
// floating-point schedule per tile is fixed, so results are
// byte-identical for every scheduler size.
package linalg

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a factorisation meets an (effectively)
// singular pivot.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a shared slice.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Reshape resizes m to rows×cols, reusing its backing array when it is
// large enough, and zeroes the content.
func (m *Matrix) Reshape(rows, cols int) {
	m.reshapeNoClear(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// reshapeNoClear resizes m without zeroing: the internal form of
// Reshape for kernels that overwrite every element anyway (CopyFrom,
// the packed GEMM paths, blocked solves). Exported callers get
// Reshape's zeroing contract; in-package hot paths skip the redundant
// clear.
func (m *Matrix) reshapeNoClear(rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom resizes m to a's shape and copies a's content.
func (m *Matrix) CopyFrom(a *Matrix) {
	m.reshapeNoClear(a.Rows, a.Cols)
	copy(m.Data, a.Data)
}

// ApproxBytes reports the matrix's resident size for cache accounting.
func (m *Matrix) ApproxBytes() int64 { return int64(cap(m.Data))*8 + 48 }

// MulVec computes y = m·x.
func (m *Matrix) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec dims %dx%d × %d -> %d", m.Rows, m.Cols, len(x), len(y)))
	}
	if useAsm && m.Cols >= 16 {
		xp := &x[0]
		for i := 0; i < m.Rows; i++ {
			y[i] = dotAsm(&m.Data[i*m.Cols], xp, m.Cols)
		}
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// Axpy computes y += a·x over equal-length vectors, using the FMA
// kernel when available.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy dims %d vs %d", len(x), len(y)))
	}
	if a == 0 || len(x) == 0 {
		return
	}
	if useAsm && len(x) >= 16 {
		axpyAsm(a, &x[0], &y[0], len(x))
		return
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Dot returns Σ x[i]·y[i] over equal-length vectors, using the FMA
// kernel when available.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot dims %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 0
	}
	if useAsm && len(x) >= 16 {
		return dotAsm(&x[0], &y[0], len(x))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// MulVecT computes y = mᵀ·x (y[j] = Σ_i x[i]·m[i,j]) without
// materialising the transpose; it walks m row-wise, so it is as
// cache-friendly as MulVec.
func (m *Matrix) MulVecT(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecT dims %dx%d ᵀ× %d -> %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	wide := useAsm && m.Cols >= 16
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		if wide {
			axpyAsm(xi, &m.Data[i*m.Cols], &y[0], m.Cols)
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
}
