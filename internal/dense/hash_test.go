package dense

import (
	"math"
	"math/rand"
	"testing"
)

// The contract of Hash64 beyond TestHash64ContentAddressing: what must change
// the hash, and what must not.

func randomMatrix(rng *rand.Rand, r, c int) *M64 {
	m := New[float64](r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestHash64Properties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	// 11 rows: two whole groups of four and a three-row tail in every column.
	const rows, cols = 11, 5
	a := randomMatrix(rng, rows, cols)
	h := a.Hash64()
	if again := a.Clone().Hash64(); again != h {
		t.Fatalf("a clone hashes %x, the matrix %x", again, h)
	}

	// One element changed, anywhere — every lane, the tail, every column —
	// and to anything: a different hash, always (the step is a bijection of
	// its lane).
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			old := a.At(i, j)
			for _, v := range []float64{old + 1, -old, 0, math.Copysign(0, -1), math.Inf(1), math.NaN(), math.Nextafter(old, 2)} {
				a.Set(i, j, v)
				if a.Hash64() == h {
					t.Fatalf("element (%d,%d) = %v hashes like %v", i, j, v, old)
				}
			}
			for bit := 0; bit < 64; bit++ {
				a.Set(i, j, math.Float64frombits(math.Float64bits(old)^(1<<bit)))
				if a.Hash64() == h {
					t.Fatalf("flipping bit %d of element (%d,%d) leaves the hash unchanged", bit, i, j)
				}
			}
			a.Set(i, j, old)
		}
	}
	if a.Hash64() != h {
		t.Fatal("the matrix was not restored")
	}

	// Order is content: rows rotated by any amount (a multiple of the lane
	// count included), two columns swapped, the shape swapped over the same
	// elements.
	for r := 1; r < rows; r++ {
		rot := New[float64](rows, cols)
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				rot.Set((i+r)%rows, j, a.At(i, j))
			}
		}
		if rot.Hash64() == h {
			t.Fatalf("rows rotated by %d hash like the original", r)
		}
	}
	for j := 1; j < cols; j++ {
		sw := a.Clone()
		copy(sw.Col(0), a.Col(j))
		copy(sw.Col(j), a.Col(0))
		if sw.Hash64() == h {
			t.Fatalf("columns 0 and %d swapped hash like the original", j)
		}
	}
	if NewFromColMajor(cols, rows, a.Data).Hash64() == h {
		t.Fatalf("the same %d elements as %dx%d and as %dx%d hash alike", rows*cols, rows, cols, cols, rows)
	}

	// Layout is not content: a view hashes as its tight clone, whatever the
	// stride and offset, and a float32 matrix as its float64 widening.
	big := randomMatrix(rng, 23, 9)
	for _, v := range []*M64{big.View(0, 0, 23, 9), big.View(3, 2, 11, 5), big.View(22, 8, 1, 1), big.View(1, 0, 4, 9), big.View(5, 5, 0, 0)} {
		if v.Hash64() != v.Clone().Hash64() {
			t.Fatalf("a %dx%d view (stride %d) hashes unlike its tight clone", v.Rows, v.Cols, v.Stride)
		}
	}
	// An empty matrix has a shape and nothing else.
	if New[float64](0, 3).Hash64() == New[float64](0, 4).Hash64() || New[float64](3, 0).Hash64() == New[float64](0, 3).Hash64() {
		t.Fatal("empty matrices of different shapes hash alike")
	}
	a32 := ToF32(a)
	if a32.Hash64() != ToF64(a32).Hash64() {
		t.Fatal("a float32 matrix hashes unlike its float64 widening")
	}
	if a32.Hash64() == h {
		t.Fatal("narrowing to float32 changed no element's hash")
	}

	// No easy collisions: 1e5 matrices, each the original with one random
	// element set to one random value, all hash apart.
	seen := make(map[uint64]int, 100001)
	seen[h] = -1
	for k := 0; k < 100000; k++ {
		at := rng.Intn(len(a.Data))
		old := a.Data[at]
		a.Data[at] = math.Float64frombits(rng.Uint64())
		if math.Float64bits(a.Data[at]) != math.Float64bits(old) {
			got := a.Hash64()
			if prev, dup := seen[got]; dup {
				t.Fatalf("perturbation %d hashes %x like perturbation %d", k, got, prev)
			}
			seen[got] = k
		}
		a.Data[at] = old
	}
}

// FuzzHash64ViewInvariant: a view's hash is its tight clone's, at any shape,
// stride and offset — padding and neighbours are not content.
func FuzzHash64ViewInvariant(f *testing.F) {
	f.Add(int64(1), uint8(11), uint8(5), uint8(3), uint8(2), uint8(7))
	f.Add(int64(2), uint8(4), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(1), uint8(9), uint8(5), uint8(1), uint8(1))
	f.Add(int64(4), uint8(0), uint8(3), uint8(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, offI, offJ, pad uint8) {
		r, c := 1+int(rows%40), 1+int(cols%12)
		i, j := int(offI%8), int(offJ%4)
		rng := rand.New(rand.NewSource(seed))
		parent := randomMatrix(rng, i+r+int(pad%8), j+c+int(pad%3))
		v := parent.View(i, j, r, c)
		tight := v.Clone()
		if v.Hash64() != tight.Hash64() {
			t.Fatalf("%dx%d view at (%d,%d) of %dx%d hashes unlike its clone", r, c, i, j, parent.Rows, parent.Cols)
		}
		// What lies outside the view is not hashed.
		for k := range parent.Data {
			parent.Data[k] = -parent.Data[k]
		}
		v.CopyFrom(tight)
		if v.Hash64() != tight.Hash64() {
			t.Fatalf("%dx%d view at (%d,%d): the hash read outside the view", r, c, i, j)
		}
	})
}
