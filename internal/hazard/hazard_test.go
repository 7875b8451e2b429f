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
		KindNonFinite:     "non-finite",
		KindOverflow:      "fp16-overflow",
		KindBreakdown:     "breakdown",
		KindRankDeficient: "rank-deficient",
		KindStagnation:    "stagnation",
		KindDivergence:    "divergence",
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
	if r.Any() || r.Len() != 0 || r.Events() != nil {
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
	if !r.Any() || r.Len() != 2 {
		t.Error("Any/Len disagree with Events")
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
				_ = r.Any()
				_ = r.Len()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("lost events: %d", r.Len())
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
