// Package dense provides column-major dense matrices over float32 and
// float64, in the LAPACK storage convention: element (i, j) of a matrix M
// lives at M.Data[i+j*M.Stride]. Views share storage with their parent, so
// panel/trailing-matrix decompositions used throughout the QR algorithms are
// zero-copy.
package dense

import (
	"fmt"
	"math"
	"math/bits"
)

// Float is the scalar constraint for all generic numerical kernels in this
// repository.
type Float interface {
	~float32 | ~float64
}

// Matrix is a column-major dense matrix. The zero value is an empty matrix.
type Matrix[T Float] struct {
	Rows   int
	Cols   int
	Stride int // leading dimension; Stride >= max(1, Rows)
	Data   []T // len >= Stride*(Cols-1)+Rows for non-empty matrices
}

// M32 and M64 are the two concrete matrix types used across the repository.
type (
	M32 = Matrix[float32]
	M64 = Matrix[float64]
)

// New allocates a zeroed r×c matrix with a tight stride.
func New[T Float](r, c int) *Matrix[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", r, c))
	}
	return &Matrix[T]{Rows: r, Cols: c, Stride: max(1, r), Data: make([]T, r*c)}
}

// NewFromColMajor wraps an existing column-major slice without copying.
// The slice must hold at least r*c elements.
func NewFromColMajor[T Float](r, c int, data []T) *Matrix[T] {
	if len(data) < r*c {
		panic(fmt.Sprintf("dense: slice of %d elements cannot back a %dx%d matrix", len(data), r, c))
	}
	return &Matrix[T]{Rows: r, Cols: c, Stride: max(1, r), Data: data}
}

// At returns element (i, j).
func (m *Matrix[T]) At(i, j int) T { return m.Data[i+j*m.Stride] }

// Set assigns element (i, j).
func (m *Matrix[T]) Set(i, j int, v T) { m.Data[i+j*m.Stride] = v }

// Col returns the j-th column as a slice sharing storage.
func (m *Matrix[T]) Col(j int) []T { return m.Data[j*m.Stride : j*m.Stride+m.Rows] }

// View returns the r×c submatrix whose top-left corner is (i, j). The view
// shares storage with m.
func (m *Matrix[T]) View(i, j, r, c int) *Matrix[T] {
	v := new(Matrix[T])
	v.SetView(m, i, j, r, c)
	return v
}

// SetView re-points m at the r×c submatrix of src whose top-left corner is
// (i, j), sharing src's storage: View without the allocation, for a loop
// that moves one view across a matrix.
func (m *Matrix[T]) SetView(src *Matrix[T], i, j, r, c int) {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > src.Rows || j+c > src.Cols {
		panic(fmt.Sprintf("dense: view [%d:%d, %d:%d] out of bounds of %dx%d", i, i+r, j, j+c, src.Rows, src.Cols))
	}
	var data []T
	if r > 0 && c > 0 {
		off := i + j*src.Stride
		data = src.Data[off : off+(c-1)*src.Stride+r]
	}
	*m = Matrix[T]{Rows: r, Cols: c, Stride: src.Stride, Data: data}
}

// Clone returns a freshly allocated deep copy with a tight stride.
func (m *Matrix[T]) Clone() *Matrix[T] {
	n := New[T](m.Rows, m.Cols)
	n.CopyFrom(m)
	return n
}

// CopyFrom copies the contents of src into m. Shapes must match.
func (m *Matrix[T]) CopyFrom(src *Matrix[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: copy shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Col(j), src.Col(j))
	}
}

// Zero sets every element of m to zero.
func (m *Matrix[T]) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 0
		}
	}
}

// SetIdentity writes the identity pattern into m (works for rectangular
// matrices: ones on the main diagonal, zeros elsewhere).
func (m *Matrix[T]) SetIdentity() {
	m.Zero()
	for i := 0; i < min(m.Rows, m.Cols); i++ {
		m.Set(i, i, 1)
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix[T]) Transpose() *Matrix[T] {
	t := New[T](m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i, v := range col {
			t.Set(j, i, v)
		}
	}
	return t
}

// Scale multiplies every element of m by s in place.
func (m *Matrix[T]) Scale(s T) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] *= s
		}
	}
}

// Equal reports whether a and b have the same shape and identical elements.
func Equal[T Float](a, b *Matrix[T]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if ca[i] != cb[i] {
				return false
			}
		}
	}
	return true
}

// ToF64 widens a float32 matrix to float64.
func ToF64(m *M32) *M64 {
	out := New[float64](m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		src, dst := m.Col(j), out.Col(j)
		for i, v := range src {
			dst[i] = float64(v)
		}
	}
	return out
}

// ToF32 narrows a float64 matrix to float32 with default (round-to-nearest)
// conversion.
func ToF32(m *M64) *M32 {
	out := New[float32](m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		src, dst := m.Col(j), out.Col(j)
		for i, v := range src {
			dst[i] = float32(v)
		}
	}
	return out
}

// Hash64 returns a 64-bit content hash of the matrix: the shape, then every
// element in column-major order (stride padding is not hashed, so a view and
// its tight-stride clone hash identically). Elements are hashed through their
// exact float64 bit pattern, so a float32 matrix hashes equal to its float64
// widening (callers keying caches across precisions must add their own type
// tag) and -0 hashes apart from +0. A nil matrix hashes as empty.
//
// The hash reads a word at a time into four independent lanes — row i of a
// column feeds lane i mod 4, the rows past the last whole group of four feed
// lanes 0, 1, 2 — so four multiply chains overlap and the loop runs at memory
// speed. Each step is a bijection of its lane for a fixed word and of the
// word for a fixed lane, and the lanes' fold and the final avalanche are
// bijections too, so two matrices of one shape that differ in exactly one
// element never collide. Beyond that it is a non-cryptographic hash: a name
// for the contents, not a proof of them. Whoever must not confuse two
// matrices compares them.
func (m *Matrix[T]) Hash64() uint64 {
	var rows, cols int
	if m != nil {
		rows, cols = m.Rows, m.Cols
	}
	h0 := hashStep(hashSeed0, uint64(rows))
	h1 := hashStep(hashSeed1, uint64(cols))
	h2, h3 := uint64(hashSeed2), uint64(hashSeed3)
	for j := 0; rows > 0 && j < cols; j++ {
		col := m.Col(j)
		for len(col) >= 4 {
			h0 = hashStep(h0, math.Float64bits(float64(col[0])))
			h1 = hashStep(h1, math.Float64bits(float64(col[1])))
			h2 = hashStep(h2, math.Float64bits(float64(col[2])))
			h3 = hashStep(h3, math.Float64bits(float64(col[3])))
			col = col[4:]
		}
		switch len(col) {
		case 3:
			h2 = hashStep(h2, math.Float64bits(float64(col[2])))
			fallthrough
		case 2:
			h1 = hashStep(h1, math.Float64bits(float64(col[1])))
			fallthrough
		case 1:
			h0 = hashStep(h0, math.Float64bits(float64(col[0])))
		}
	}
	h := bits.RotateLeft64(h0, 1) + bits.RotateLeft64(h1, 7) + bits.RotateLeft64(h2, 12) + bits.RotateLeft64(h3, 18)
	h ^= h >> 33
	h *= hashMulB
	h ^= h >> 29
	h *= hashMulC
	h ^= h >> 32
	return h
}

// The multipliers are odd (so multiplication is invertible mod 2^64) with
// about half their bits set; the seeds are non-zero (zero is the step's fixed
// point under zero words) and keep the four lanes of an all-zero matrix apart.
const (
	hashMulA = 0x9E3779B185EBCA87
	hashMulB = 0xC2B2AE3D27D4EB4F
	hashMulC = 0x165667B19E3779F9

	hashSeed0 = 0x60EA27EEADC0B5D6
	hashSeed1 = 0xC2B2AE3D27D4EB4F
	hashSeed2 = 0x165667B19E3779F9
	hashSeed3 = 0x61C8864E7A143579
)

// hashStep folds word x into lane h.
func hashStep(h, x uint64) uint64 {
	return bits.RotateLeft64(h+x*hashMulB, 31) * hashMulA
}

// HasNaN reports whether any element of m is NaN or infinite.
func (m *Matrix[T]) HasNaN() bool {
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return true
			}
		}
	}
	return false
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Matrix[T]) String() string {
	if m.Rows > 12 || m.Cols > 12 {
		return fmt.Sprintf("Matrix{%dx%d}", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% 12.5g", float64(m.At(i, j)))
		}
		s += "\n"
	}
	return s
}
