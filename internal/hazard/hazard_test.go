package hazard

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"tcqr/internal/dense"
)

func TestPolicyAndKindStrings(t *testing.T) {
	if Fail.String() != "fail" || Fallback.String() != "fallback" {
		t.Errorf("policy names: %q %q", Fail, Fallback)
	}
	if s := Policy(42).String(); s != "Policy(42)" {
		t.Errorf("unknown policy: %q", s)
	}
	want := map[Kind]string{
		KindNonFinite:  "non-finite",
		KindOverflow:   "fp16-overflow",
		KindBreakdown:  "breakdown",
		KindStagnation: "stagnation",
		KindDivergence: "divergence",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind(%d) = %q, want %q", int(k), k, name)
		}
	}
	if s := Kind(42).String(); s != "Kind(42)" {
		t.Errorf("unknown kind: %q", s)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: KindOverflow, Stage: "engine", Detail: "23 overflows", Action: "retry with column scaling"}
	if got := e.String(); got != "[fp16-overflow] engine: 23 overflows -> retry with column scaling" {
		t.Errorf("event render: %q", got)
	}
	// Detection-only events render without the arrow.
	e.Action = ""
	if got := e.String(); got != "[fp16-overflow] engine: 23 overflows" {
		t.Errorf("detection-only render: %q", got)
	}
}

func TestReportNilSafety(t *testing.T) {
	var r *Report
	r.Record(Event{Kind: KindBreakdown}) // must not panic
	if r.Events() != nil {
		t.Error("nil report should be empty")
	}
}

func TestReportRecordsInOrder(t *testing.T) {
	r := &Report{}
	r.Record(Event{Stage: "a"})
	r.Record(Event{Stage: "b"})
	ev := r.Events()
	if len(ev) != 2 || ev[0].Stage != "a" || ev[1].Stage != "b" {
		t.Fatalf("events out of order: %v", ev)
	}
	// Events returns a copy: mutating it must not affect the report.
	ev[0].Stage = "mutated"
	if r.Events()[0].Stage != "a" {
		t.Error("Events aliases internal storage")
	}
}

func TestReportConcurrent(t *testing.T) {
	r := &Report{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Kind: KindBreakdown, Stage: fmt.Sprintf("g%d", g)})
				_ = r.Events()
			}
		}(g)
	}
	wg.Wait()
	if n := len(r.Events()); n != 800 {
		t.Errorf("lost events: %d", n)
	}
}

func TestCheckVec(t *testing.T) {
	if err := CheckVec("x", []float64{1, 2, 3}); err != nil {
		t.Errorf("finite vector rejected: %v", err)
	}
	err := CheckVec("x", []float64{1, math.NaN()})
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("NaN vector: %v", err)
	}
	if err := CheckVec("x", []float32{float32(math.Inf(-1))}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("Inf vector: %v", err)
	}
	if err := CheckVec[float64]("x", nil); err != nil {
		t.Errorf("empty vector should pass: %v", err)
	}
}

func TestCheckMatrix(t *testing.T) {
	if err := CheckMatrix[float64]("A", nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("nil matrix: %v", err)
	}
	if err := CheckMatrix("A", dense.New[float64](0, 3)); !errors.Is(err, ErrEmpty) {
		t.Errorf("zero rows: %v", err)
	}
	if err := CheckMatrix("A", dense.New[float64](3, 0)); !errors.Is(err, ErrEmpty) {
		t.Errorf("zero cols: %v", err)
	}
	a := dense.New[float32](2, 2)
	if err := CheckMatrix("A", a); err != nil {
		t.Errorf("finite matrix rejected: %v", err)
	}
	a.Set(1, 0, float32(math.Inf(1)))
	err := CheckMatrix("A", a)
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("Inf matrix: %v", err)
	}
	if !MatrixFinite(dense.New[float64](0, 0)) {
		t.Error("empty matrix should count as finite")
	}
	if MatrixFinite(a) {
		t.Error("Inf matrix reported finite")
	}
}

// oldCheckMatrix is CheckMatrix's element-by-element scan as it stood before
// the branch-free column scan; the new one must return its errors verbatim.
func oldCheckMatrix[T dense.Float](name string, a *dense.Matrix[T]) error {
	for j := 0; j < a.Cols; j++ {
		for i, v := range a.Col(j) {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("%s(%d,%d) = %v: %w", name, i, j, v, ErrNonFinite)
			}
		}
	}
	return nil
}

// TestCheckMatrixNamesFirstOffender places NaN and ±Inf where the four-lane
// scan could go wrong — first and last element, each lane of the unrolled
// body, the tail past it, two in one column, one in a later column of a view
// — and requires the old scan's error, word for word: the first offender in
// column-major order, with its value.
func TestCheckMatrixNamesFirstOffender(t *testing.T) {
	checkMatrixNamesFirstOffender[float32](t)
	checkMatrixNamesFirstOffender[float64](t)
}

func checkMatrixNamesFirstOffender[T dense.Float](t *testing.T) {
	nan, pinf, ninf := T(math.NaN()), T(math.Inf(1)), T(math.Inf(-1))
	type at struct {
		i, j int
		v    T
	}
	const rows, cols = 11, 3 // two four-lane turns and a three-element tail
	cases := [][]at{
		{},
		{{0, 0, nan}},
		{{rows - 1, cols - 1, pinf}},
		{{1, 0, ninf}}, {{2, 1, nan}}, {{3, 2, pinf}}, {{4, 0, ninf}}, // every lane
		{{8, 1, nan}}, {{9, 1, pinf}}, {{10, 1, ninf}}, // the tail
		{{9, 0, nan}, {2, 0, pinf}},  // two in one column: the earlier row wins
		{{0, 2, nan}, {10, 1, ninf}}, // two columns: the earlier column wins
		{{3, 0, pinf}, {7, 0, ninf}}, // +Inf and −Inf in one lane's running sum
	}
	for _, view := range []bool{false, true} {
		for ci, c := range cases {
			parent := dense.New[T](rows+2, cols+1)
			for i := range parent.Data {
				parent.Data[i] = T(i%7) - 3
			}
			var a *dense.Matrix[T]
			if view {
				// The view's gaps hold non-finite values the scan must not read.
				for j := 0; j <= cols; j++ {
					parent.Set(0, j, nan)
					parent.Set(rows+1, j, pinf)
				}
				for i := range parent.Col(0) {
					parent.Set(i, 0, ninf)
				}
				a = parent.View(1, 1, rows, cols)
			} else {
				a = parent.View(0, 0, rows, cols).Clone()
			}
			for _, p := range c {
				a.Set(p.i, p.j, p.v)
			}
			got, want := CheckMatrix("A", a), oldCheckMatrix("A", a)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Errorf("%T view=%v case %d: CheckMatrix = %v, element scan = %v", T(0), view, ci, got, want)
			}
			if got != nil && !errors.Is(got, ErrNonFinite) {
				t.Errorf("%T case %d: %v does not wrap ErrNonFinite", T(0), ci, got)
			}
			if MatrixFinite(a) != (want == nil) {
				t.Errorf("%T view=%v case %d: MatrixFinite = %v, element scan says %v", T(0), view, ci, MatrixFinite(a), want)
			}
			for j := 0; j < a.Cols; j++ {
				gv, wv := CheckVec("x", a.Col(j)), error(nil)
				for i, v := range a.Col(j) {
					if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
						wv = fmt.Errorf("x[%d] = %v: %w", i, v, ErrNonFinite)
						break
					}
				}
				if (gv == nil) != (wv == nil) || (gv != nil && gv.Error() != wv.Error()) {
					t.Errorf("%T view=%v case %d column %d: CheckVec = %v, element scan = %v", T(0), view, ci, j, gv, wv)
				}
			}
		}
	}
	// The largest finite magnitudes are finite: v − v is 0, not an overflow.
	big := dense.New[T](5, 1)
	for i := range big.Data {
		big.Data[i] = T(math.MaxFloat32)
		if i%2 == 1 {
			big.Data[i] = -big.Data[i]
		}
	}
	if err := CheckMatrix("A", big); err != nil {
		t.Errorf("%T: largest finite values rejected: %v", T(0), err)
	}
}
