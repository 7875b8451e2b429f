package roundtest

import (
	"math"
	"testing"
)

// TestTablesWellFormed: the sweep's low halves are 64 distinct values that
// include both formats' rounding boundaries, and the class table holds a
// NaN of every payload shape.
func TestTablesWellFormed(t *testing.T) {
	seen := map[uint32]bool{}
	for _, low := range strideLows {
		if low > 0xffff || seen[low] {
			t.Errorf("strideLows: %#04x out of range or repeated", low)
		}
		seen[low] = true
	}
	for _, low := range []uint32{0x0000, 0x0fff, 0x1000, 0x1001, 0x1fff, 0x7fff, 0x8000, 0x8001, 0xffff} {
		if !seen[low] {
			t.Errorf("strideLows lacks the boundary pattern %#04x", low)
		}
	}
	var highOnly, lowOnly, both bool
	for _, b := range Classes {
		if !math.IsNaN(float64(math.Float32frombits(b))) {
			continue
		}
		high, low := b&0x007fe000 != 0, b&0x00001fff != 0
		highOnly = highOnly || (high && !low)
		lowOnly = lowOnly || (!high && low)
		both = both || (high && low)
	}
	if !highOnly || !lowOnly || !both {
		t.Errorf("Classes NaN payload shapes: high-ten only %v, low-thirteen only %v, both %v", highOnly, lowOnly, both)
	}
}

// TestHarnessCatchesMismatch: a kernel whose two sides disagree in one
// element, or in one count, must fail the comparison.
func TestHarnessCatchesMismatch(t *testing.T) {
	same := func(x []float32) (int64, int64) { return 0, 0 }
	flipLast := func(x []float32) (int64, int64) {
		if n := len(x); n > 0 {
			x[n-1] = -x[n-1]
		}
		return 0, 0
	}
	miscount := func(x []float32) (int64, int64) { return int64(len(x)), 0 }
	in := []float32{1, 2, 3}
	got, want := make([]float32, 3), make([]float32, 3)
	for _, k := range []Kernel{{"value", flipLast, same}, {"count", miscount, same}} {
		var rec recorder
		if compare(&rec, k, in, got, want) || !rec.failed {
			t.Errorf("%s mismatch not reported", k.Name)
		}
	}
	var rec recorder
	if !compare(&rec, Kernel{"equal", same, same}, in, got, want) || rec.failed {
		t.Error("identical sides reported as different")
	}
}

// recorder is a testing.TB that notes a failure instead of failing.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Errorf(string, ...any) { r.failed = true }
