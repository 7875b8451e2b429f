package dense

import (
	"math"
	"testing"
)

func fill64(m *M64, f func(i, j int) float64) {
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, f(i, j))
		}
	}
}

func TestNewAndIndexing(t *testing.T) {
	m := New[float64](3, 2)
	if m.Rows != 3 || m.Cols != 2 || m.Stride != 3 {
		t.Fatalf("bad shape %+v", m)
	}
	m.Set(2, 1, 5)
	if m.At(2, 1) != 5 || m.Data[2+1*3] != 5 {
		t.Fatal("column-major layout violated")
	}
	if got := m.Col(1)[2]; got != 5 {
		t.Fatalf("Col view wrong: %v", got)
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := New[float32](6, 6)
	v := m.View(2, 3, 3, 2)
	v.Set(0, 0, 7)
	if m.At(2, 3) != 7 {
		t.Fatal("view does not alias parent storage")
	}
	if v.At(2, 1) != m.At(4, 4) {
		t.Fatal("view offset wrong")
	}
	// Zero-size views must be constructible at the far edge.
	e := m.View(6, 6, 0, 0)
	if e.Rows != 0 || e.Cols != 0 {
		t.Fatal("empty view wrong shape")
	}
}

func TestViewBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds view must panic")
		}
	}()
	New[float64](3, 3).View(1, 1, 3, 1)
}

func TestCloneIsDeep(t *testing.T) {
	m := New[float64](4, 3)
	fill64(m, func(i, j int) float64 { return float64(i*10 + j) })
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Fatal("clone shares storage")
	}
	if !Equal(m.Clone(), m) {
		t.Fatal("clone not equal to source")
	}
}

func TestTranspose(t *testing.T) {
	m := New[float64](2, 3)
	fill64(m, func(i, j int) float64 { return float64(i + 10*j) })
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatal("transpose shape wrong")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose element (%d,%d) wrong", i, j)
			}
		}
	}
}

func TestSetIdentityAndZero(t *testing.T) {
	m := New[float32](3, 5)
	m.Set(2, 4, 9)
	m.SetIdentity()
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			want := float32(0)
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("identity(%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left nonzero data")
		}
	}
}

func TestScaleAndConversions(t *testing.T) {
	m := New[float64](2, 2)
	fill64(m, func(i, j int) float64 { return float64(i + j + 1) })
	m.Scale(2)
	if m.At(1, 1) != 6 {
		t.Fatal("scale wrong")
	}
	f32 := ToF32(m)
	back := ToF64(f32)
	if !Equal(m, back) {
		t.Fatal("f64->f32->f64 round trip lost exact small integers")
	}
}

func TestNorms(t *testing.T) {
	m := New[float64](2, 3)
	// [[1 -2 3], [4 5 -6]]
	vals := [][]float64{{1, -2, 3}, {4, 5, -6}}
	fill64(m, func(i, j int) float64 { return vals[i][j] })
	if got, want := NormMax(m), 6.0; got != want {
		t.Errorf("NormMax = %v, want %v", got, want)
	}
	if got, want := NormFro(m), math.Sqrt(1+4+9+16+25+36); math.Abs(got-want) > 1e-12 {
		t.Errorf("NormFro = %v, want %v", got, want)
	}
}

func TestNormFroOverflowSafety(t *testing.T) {
	m := New[float64](1, 2)
	m.Set(0, 0, 1e200)
	m.Set(0, 1, 1e200)
	want := 1e200 * math.Sqrt(2)
	if got := NormFro(m); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("NormFro overflowed: %v want %v", got, want)
	}
}

func TestNorm2EstDiagonal(t *testing.T) {
	m := New[float64](4, 4)
	for i, s := range []float64{3, 7, 2, 5} {
		m.Set(i, i, s)
	}
	if got := Norm2Est(m, 50); math.Abs(got-7) > 1e-6 {
		t.Errorf("Norm2Est(diag) = %v, want 7", got)
	}
	// Rectangular case: sigma_max of [[3,0],[0,4],[0,0]] is 4.
	r := New[float64](3, 2)
	r.Set(0, 0, 3)
	r.Set(1, 1, 4)
	if got := Norm2Est(r, 50); math.Abs(got-4) > 1e-6 {
		t.Errorf("Norm2Est(rect) = %v, want 4", got)
	}
}

func TestHasNaN(t *testing.T) {
	m := New[float32](2, 2)
	if m.HasNaN() {
		t.Fatal("zero matrix reported NaN")
	}
	m.Set(1, 0, float32(math.Inf(1)))
	if !m.HasNaN() {
		t.Fatal("Inf not detected")
	}
	m.Set(1, 0, float32(math.NaN()))
	if !m.HasNaN() {
		t.Fatal("NaN not detected")
	}
}

func TestNewFromColMajor(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := NewFromColMajor(2, 3, data)
	if m.At(1, 2) != 6 || m.At(0, 1) != 3 {
		t.Fatal("NewFromColMajor layout wrong")
	}
	data[0] = -1
	if m.At(0, 0) != -1 {
		t.Fatal("NewFromColMajor must not copy")
	}
}

func TestEqualShapes(t *testing.T) {
	a := New[float64](2, 2)
	b := New[float64](2, 3)
	if Equal(a, b) {
		t.Fatal("different shapes reported equal")
	}
	c := New[float64](2, 2)
	c.Set(0, 1, 1)
	if Equal(a, c) {
		t.Fatal("different contents reported equal")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := New[float64](2, 2)
	if small.String() == "" {
		t.Fatal("empty String for small matrix")
	}
	large := New[float64](100, 100)
	if got := large.String(); got != "Matrix{100x100}" {
		t.Fatalf("large matrix String = %q", got)
	}
}

func TestHash64ContentAddressing(t *testing.T) {
	a := New[float32](3, 2)
	b := New[float32](3, 2)
	if a.Hash64() != b.Hash64() {
		t.Fatal("identical matrices hash differently")
	}
	b.Set(2, 1, 1)
	if a.Hash64() == b.Hash64() {
		t.Fatal("differing contents hash equal")
	}
	// Shape participates: a 3x2 and a 2x3 of all zeros must differ.
	if New[float64](3, 2).Hash64() == New[float64](2, 3).Hash64() {
		t.Fatal("transposed shapes hash equal")
	}
	// A strided view hashes by logical content, not backing layout: a
	// submatrix must hash like a tight copy of the same values.
	big := New[float64](4, 4)
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			big.Set(i, j, float64(i*4+j))
		}
	}
	view := big.View(0, 0, 3, 2)
	tight := New[float64](3, 2)
	for j := 0; j < 2; j++ {
		copy(tight.Col(j), view.Col(j))
	}
	if view.Hash64() != tight.Hash64() {
		t.Fatal("strided view hashes differently from its tight copy")
	}
	// Nil hashes like an empty matrix and must not panic.
	var nilM *Matrix[float64]
	_ = nilM.Hash64()
}
