package gram

import (
	"errors"
	"math"
	"sync"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/hazard"
)

// copying hides the in-place method of the panel it wraps, so FactorInto
// takes the path of a foreign Panel: Factor, then a copy of Q and R.
type copying struct{ Panel }

// embedded returns a poisoned (m+5)×(n+3) matrix holding a at (3, 2), and
// the view of a in it: a panel whose stride is not its height.
func embedded(a *dense.M32) (whole, v *dense.M32) {
	whole = dense.New[float32](a.Rows+5, a.Cols+3)
	for i := range whole.Data {
		whole.Data[i] = 7.5
	}
	v = whole.View(3, 2, a.Rows, a.Cols)
	v.CopyFrom(a)
	return whole, v
}

// poisonedR returns a poisoned (n+4)×(n+4) matrix and its n×n view at (1, 2).
func poisonedR(n int) (whole, v *dense.M32) {
	whole = dense.New[float32](n+4, n+4)
	for i := range whole.Data {
		whole.Data[i] = -3.25
	}
	return whole, whole.View(1, 2, n, n)
}

// factorEmbedded runs FactorInto(p) on a copy of a embedded in a larger
// matrix, R into a view of a larger one, and returns both whole matrices.
func factorEmbedded(p Panel, a *dense.M32) (w, r *dense.M32, err error) {
	w, wv := embedded(a)
	r, rv := poisonedR(a.Cols)
	err = FactorInto(p, wv, rv)
	return w, r, err
}

func sameBits(x, y []float32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}

// TestPanelsInPlaceBitIdentical: each panel of the package writes, in place,
// the bits its Factor and a copy write — Q over the panel, all of R into the
// n×n view it is given — and nothing outside them. The panel is a view whose
// stride is not its height and R a view inside a larger matrix, both
// surrounded by poison, so a write out of bounds shows as a difference from
// the copying path, which writes only through CopyFrom. 1000×96 has a ragged
// last tile; 257×7 is narrower than a tile. A zero column is a breakdown on
// both paths.
func TestPanelsInPlaceBitIdentical(t *testing.T) {
	panels := []Panel{&CAQRPanel{}, &CAQRPanel{RowBlock: 64}, MGSPanel{}, CholQRPanel{}, &HouseholderPanel{}}
	for _, s := range []struct{ m, n int }{{1000, 96}, {600, 32}, {257, 7}} {
		a := randPanel(44, s.m, s.n)
		for _, p := range panels {
			w, r, err := factorEmbedded(p, a)
			if err != nil {
				t.Fatalf("%s %dx%d in place: %v", p.Name(), s.m, s.n, err)
			}
			wantW, wantR, err := factorEmbedded(copying{p}, a)
			if err != nil {
				t.Fatalf("%s %dx%d copying: %v", p.Name(), s.m, s.n, err)
			}
			if !sameBits(w.Data, wantW.Data) || !sameBits(r.Data, wantR.Data) {
				t.Errorf("%s %dx%d: the in-place factors or their surroundings differ from Factor's", p.Name(), s.m, s.n)
			}
		}
	}

	z := randPanel(45, 300, 16)
	for i := range z.Col(5) {
		z.Col(5)[i] = 0
	}
	for _, p := range panels[:4] {
		for _, q := range []Panel{p, copying{p}} {
			if _, _, err := factorEmbedded(q, z); !errors.Is(err, hazard.ErrBreakdown) {
				t.Errorf("%s (%T) on a zero column: %v, want a breakdown", p.Name(), q, err)
			}
		}
	}
}

// TestTileTreePoolConcurrentShapes: the tile-tree workspaces go round a
// pool, so goroutines factoring different shapes and row blocks at once must
// each get the bits of the serial factorization, whichever tree they draw.
// make check runs it under the race detector, ten times.
func TestTileTreePoolConcurrentShapes(t *testing.T) {
	shapes := []struct{ m, n, rb int }{{1000, 96, 0}, {600, 32, 0}, {1024, 64, 128}, {777, 40, 0}, {300, 32, 64}}
	type job struct {
		p    *CAQRPanel
		a    *dense.M32
		q, r []float32
	}
	jobs := make([]job, len(shapes))
	for i, s := range shapes {
		p, a := &CAQRPanel{RowBlock: s.rb}, randPanel(int64(46+i), s.m, s.n)
		q, r := mustFactor(t, p, a)
		jobs[i] = job{p, a, q.Data, r.Data}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2*len(jobs); g++ {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				q, r, err := j.p.Factor(j.a)
				if err != nil {
					t.Errorf("%dx%d: %v", j.a.Rows, j.a.Cols, err)
					return
				}
				if !sameBits(q.Data, j.q) || !sameBits(r.Data, j.r) {
					t.Errorf("%dx%d (row block %d): a concurrent factorization differs from the serial one", j.a.Rows, j.a.Cols, j.p.RowBlock)
					return
				}
			}
		}(jobs[g%len(jobs)])
	}
	wg.Wait()
}
