package lls_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tcqr"
	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/house"
	"tcqr/internal/lls"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
	"tcqr/internal/tcsim"
)

// settledK bounds a settled answer: its ‖Aᵀ(Ax − b)‖ is at most settledK
// times accuracy.LLSAttainable(‖A‖₂, ‖x‖, ‖b − Ax‖). Derived from the
// battery below: the worst settled answer reads 157 times the bound (a κ
// 1e6 geometric 1024×256 A, fp32 R, consistent b; the stop rule reads the
// recursively updated residual, which drifts from b − Ax there), and the
// median 0.8.
const settledK = 200

// TestStopRuleBattery runs CGLS through SolveWithFactor, at the default
// tolerance and cap, on every combination of three shapes (512×128,
// 1024×256, 2048×128), κ 1e1, 1e3, 1e5 and 1e6, the geometric, arithmetic
// and Cluster2 spectra (‖A‖₂ = 1 for each), two seeds, three R's (tcqr's
// fp16 and fp32 engines and house.R32's float64 Householder R) and two
// right-hand sides (standard normal, and consistent with a standard normal
// x): 432 solves. Each ends one of these ways:
//   - settled, with ‖Aᵀr‖ at most settledK times the attainable bound and
//     no event;
//   - converged, with no event. At κ ≤ 1e3 its ‖Aᵀr‖ is held to settledK
//     times the bound too (the worst reads 70). At κ ≥ 1e5 it is only
//     logged: convergence reads the recursive gradient, and a run that meets
//     tol there can end up to 5e4 times the bound (a κ 1e6 Cluster2 A with
//     a consistent b) with nothing to say so;
//   - diverged or stagnated, with the one typed hazard event of its kind;
//   - exhausted at DefaultMaxIter, which records no event: no hazard kind
//     names it yet.
//
// The count of each ending is pinned, and so is the hash of every X, which
// must not depend on GOMAXPROCS (make check runs it at -cpu 1,2,4).
func TestStopRuleBattery(t *testing.T) {
	want := map[lls.Stop]int{
		lls.StopConverged: 277,
		lls.StopSettled:   147,
		lls.StopDiverged:  4,
		lls.StopExhausted: 4,
		lls.StopStagnated: 0,
	}
	const wantX = 0xb27a49d566cc3517
	got := map[lls.Stop]int{}
	h := fnv.New64a()
	var buf [8]byte
	worst := map[lls.Stop]float64{}
	for _, sh := range [][2]int{{512, 128}, {1024, 256}, {2048, 128}} {
		for _, cond := range []float64{1e1, 1e3, 1e5, 1e6} {
			for _, dist := range []matgen.Dist{matgen.Geometric, matgen.Arithmetic, matgen.Cluster2} {
				for seed := int64(0); seed < 2; seed++ {
					rng := rand.New(rand.NewSource(1000*int64(sh[0]+sh[1]) + 10*int64(math.Log10(cond)) + 3*int64(dist) + seed))
					a := matgen.WithCond(rng, sh[0], sh[1], cond, dist)
					bs := [][]float64{matgen.Normal(rng, sh[0], 1).Col(0), matgen.NewLLSProblem(rng, a, 0).B}
					for _, r := range batteryRs(t, a) {
						for bi, b := range bs {
							name := fmt.Sprintf("%dx%d/%g/%v/seed %d/%s/b%d", sh[0], sh[1], cond, dist, seed, r.name, bi)
							var rep hazard.Report
							res, err := lls.SolveWithFactor(&rgs.Result{R: r.r}, a, b, lls.SolveOptions{Hazards: &rep})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							got[res.Stop]++
							for _, v := range res.X {
								binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
								h.Write(buf[:])
							}
							ratio := accuracy.LLSOptimality(a, res.X, b) /
								accuracy.LLSAttainable(1, nrm2(res.X), accuracy.ResidualNorm(a, res.X, b))
							worst[res.Stop] = max(worst[res.Stop], ratio)
							checkEnding(t, name, cond, res, rep.Events(), ratio)
						}
					}
				}
			}
		}
	}
	for _, s := range []lls.Stop{lls.StopConverged, lls.StopSettled, lls.StopDiverged, lls.StopStagnated, lls.StopExhausted} {
		t.Logf("%v: %d runs, worst ‖Aᵀr‖ %.3g times the attainable bound", s, got[s], worst[s])
	}
	if runtime.GOARCH != "amd64" {
		return // bits recorded on amd64; other ports may fuse multiply-adds in the Go loops
	}
	for s, n := range want {
		if got[s] != n {
			t.Errorf("%d runs %v, recorded %d", got[s], s, n)
		}
	}
	if x := h.Sum64(); x != wantX {
		t.Errorf("X hash %#016x, recorded %#016x", x, uint64(wantX))
	}
}

// checkEnding holds one battery run to what its ending promises.
func checkEnding(t *testing.T, name string, cond float64, res *lls.IterResult, events []hazard.Event, ratio float64) {
	t.Helper()
	switch res.Stop {
	case lls.StopSettled, lls.StopConverged:
		if len(events) != 0 {
			t.Errorf("%s: %v with events %v", name, res.Stop, events)
		}
		if (res.Stop == lls.StopSettled || cond <= 1e3) && !(ratio <= settledK) {
			t.Errorf("%s: %v after %d iterations at %.3g times the attainable ‖Aᵀr‖, past %d",
				name, res.Stop, res.Iterations, ratio, settledK)
		}
	case lls.StopDiverged, lls.StopStagnated:
		kind := hazard.KindDivergence
		if res.Stop == lls.StopStagnated {
			kind = hazard.KindStagnation
		}
		if len(events) != 1 || events[0].Kind != kind {
			t.Errorf("%s: %v with events %v, want one %v", name, res.Stop, events, kind)
		}
	case lls.StopExhausted:
		if res.Iterations != lls.DefaultMaxIter || len(events) != 0 {
			t.Errorf("%s: exhausted after %d iterations with events %v", name, res.Iterations, events)
		}
	}
}

// batteryR is one preconditioner of the battery.
type batteryR struct {
	name string
	r    *dense.M32
}

// batteryRs returns the three R's the battery preconditions a with.
func batteryRs(t *testing.T, a *dense.M64) []batteryR {
	t.Helper()
	var rs []batteryR
	for _, e := range []tcsim.Kind{tcsim.KindTC, tcsim.KindFP32} {
		f, err := tcqr.FactorizeR(a, tcqr.Config{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, batteryR{e.String(), f.R})
	}
	r, err := house.R32(a)
	if err != nil {
		t.Fatal(err)
	}
	return append(rs, batteryR{"house.R32", r})
}

func nrm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
