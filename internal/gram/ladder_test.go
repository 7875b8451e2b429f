package gram

import (
	"errors"
	"math/rand"
	"testing"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/matgen"
)

// TestNewLadderRungs pins the ladder shapes: each first rung is followed by
// the fp32 panels strictly more robust than it.
func TestNewLadderRungs(t *testing.T) {
	cases := []struct {
		first Panel
		want  string
	}{
		{&CAQRPanel{}, "ladder(CAQR->MGS->SGEQRF)"},
		{CholQRPanel{}, "ladder(CholQR->CholQR2->MGS->SGEQRF)"},
		{CholQR2Panel{}, "ladder(CholQR2->MGS->SGEQRF)"},
		{&HouseholderPanel{}, "ladder(SGEQRF)"},
	}
	for _, c := range cases {
		if got := NewLadder(c.first, nil).Name(); got != c.want {
			t.Errorf("NewLadder(%s) = %s, want %s", c.first.Name(), got, c.want)
		}
	}
}

// TestCholQREngineAblation: whatever engine runs the factorization's update,
// the CholQR panel forms its Gram matrix with the fp32 Syrk — its factors
// equal CholQR's, at fp32-grade backward error — and a rank-deficient panel
// surfaces the typed breakdown the ladder escalates on.
func TestCholQREngineAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := dense.ToF32(matgen.WithCond(rng, 384, 24, 50, matgen.Geometric))
	q, r, err := CholQRPanel{}.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	qRef, rRef, err := CholQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(q, qRef) || !dense.Equal(r, rRef) {
		t.Error("CholQR panel factors differ from CholQR's")
	}
	if be := accuracy.BackwardError(a, q, r); be > 1e-5 {
		t.Errorf("CholQR panel backward error %g", be)
	}
	def := dense.ToF32(matgen.RankDeficient(rng, 128, 16, 8))
	if _, _, err := (CholQRPanel{}).Factor(def); !errors.Is(err, hazard.ErrBreakdown) {
		t.Fatalf("rank-deficient CholQR should break down, got %v", err)
	}
}
