// Command tcqr is a small driver around the public tcqr API: it runs one of
// four operations on a matrix on the simulated neural engine and reports the
// accuracy metrics the paper uses:
//
//	qr       RGSQRF factorization: backward error, orthogonality, engine work
//	solve    least squares by RGSQRF + refinement (Algorithm 3)
//	ortho    orthonormal basis with re-orthogonalization (Section 3.3)
//	lowrank  truncated QR-SVD approximation (Section 3.4)
//
// The matrix is either generated (-gen with -m/-n/-cond/-dist) or read
// from a CSV file of rows (-in file.csv). For solve, the right-hand side is
// the last CSV column or a generated least squares problem.
//
// Examples:
//
//	tcqr -op qr      -gen -m 2048 -n 512 -cond 1e4 -dist geometric
//	tcqr -op solve   -gen -m 4096 -n 512 -cond 1e6 -dist cluster2
//	tcqr -op ortho   -gen -m 2048 -n 256 -cond 1e6
//	tcqr -op lowrank -gen -m 8192 -n 256 -rank 32
//	tcqr -op solve   -in data.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"tcqr"
	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/matgen"
	"tcqr/internal/tcsim"
)

func main() {
	op := flag.String("op", "qr", "operation: qr, solve, ortho, lowrank")
	gen := flag.Bool("gen", false, "generate a random matrix instead of reading CSV")
	in := flag.String("in", "", "CSV input (rows of the matrix; for solve, last column is b)")
	m := flag.Int("m", 2048, "rows (with -gen)")
	n := flag.Int("n", 512, "columns (with -gen)")
	cond := flag.Float64("cond", 1e4, "condition number (with -gen)")
	dist := flag.String("dist", "geometric", "singular value distribution: geometric, arithmetic, cluster2, uniform, normal")
	rank := flag.Int("rank", 16, "truncation rank (with -op lowrank)")
	seed := flag.Int64("seed", 1, "random seed (with -gen)")
	engine := flag.String("engine", tcsim.KindTC.String(), fmt.Sprintf("simulated engine, one of %v", tcsim.Kinds()))
	reortho := flag.Bool("reortho", false, "re-orthogonalize the Q factor")
	onHazard := flag.String("on-hazard", "fail", "numerical hazard policy: fail (typed error) or fallback (recovery ladder)")
	noScale := flag.Bool("no-scaling", false, "disable the §3.5 column scaling overflow safeguard")
	flag.Parse()

	eng, err := tcsim.ParseKind(*engine)
	if err != nil {
		fatalf("-engine: %v", err)
	}
	cfg := tcqr.Config{
		Engine:               eng,
		ReOrthogonalize:      *reortho,
		DisableColumnScaling: *noScale,
	}
	switch *onHazard {
	case "fail":
		cfg.OnHazard = tcqr.HazardFail
	case "fallback":
		cfg.OnHazard = tcqr.HazardFallback
	default:
		fatalf("unknown -on-hazard policy %q (want fail or fallback)", *onHazard)
	}

	var a *tcqr.Matrix
	var b []float64
	switch {
	case *gen:
		rng := rand.New(rand.NewSource(*seed))
		switch *dist {
		case "uniform":
			a = matgen.Uniform01(rng, *m, *n)
		case "normal":
			a = matgen.Normal(rng, *m, *n)
		case "geometric":
			a = matgen.WithCond(rng, *m, *n, *cond, matgen.Geometric)
		case "arithmetic":
			a = matgen.WithCond(rng, *m, *n, *cond, matgen.Arithmetic)
		case "cluster2":
			a = matgen.WithCond(rng, *m, *n, *cond, matgen.Cluster2)
		default:
			fatalf("unknown distribution %q", *dist)
		}
		if *op == "solve" {
			b = matgen.NewLLSProblem(rng, a, 0.1).B
		}
	case *in != "":
		var err error
		a, b, err = readCSV(*in, *op == "solve")
		if err != nil {
			fatalf("reading %s: %v", *in, err)
		}
	default:
		fatalf("provide -gen or -in (see -h)")
	}

	a32 := tcqr.ToFloat32(a)
	switch *op {
	case "qr":
		f, err := tcqr.Factorize(a32, cfg)
		check(err)
		fmt.Printf("RGSQRF of %dx%d\n", a.Rows, a.Cols)
		fmt.Printf("backward error ‖A−QR‖/‖A‖:  %.3e\n", f.BackwardError(a32))
		fmt.Printf("orthogonality ‖I−QᵀQ‖:      %.3e\n", f.OrthogonalityError())
		printStats(f)
	case "ortho":
		cfg.ReOrthogonalize = true
		f, err := tcqr.Factorize(a32, cfg)
		check(err)
		fmt.Printf("orthonormal basis of %dx%d (re-orthogonalized)\n", a.Rows, a.Cols)
		fmt.Printf("orthogonality ‖I−QᵀQ‖: %.3e\n", f.OrthogonalityError())
		printStats(f)
	case "solve":
		if b == nil {
			fatalf("solve needs a right-hand side (last CSV column)")
		}
		sol, err := tcqr.SolveLeastSquares(a, b, tcqr.SolveOptions{QR: cfg})
		check(err)
		fmt.Printf("least squares solve of %dx%d system\n", a.Rows, a.Cols)
		fmt.Printf("refinement iterations:  %d (converged: %v)\n", sol.Iterations, sol.Converged)
		fmt.Printf("optimality ‖Aᵀ(Ax−b)‖:  %.3e\n", sol.Optimality)
		fmt.Printf("residual ‖Ax−b‖:        %.3e\n", accuracy.ResidualNorm(a, sol.X, b))
		printHazards(sol.Hazards)
	case "lowrank":
		lr, err := tcqr.LowRank(a32, *rank, cfg)
		check(err)
		fmt.Printf("rank-%d approximation of %dx%d\n", lr.Rank, a.Rows, a.Cols)
		fmt.Printf("relative error ‖A−UΣVᵀ‖/‖A‖: %.3e\n", lr.Error(a32))
		fmt.Printf("leading singular values: ")
		for i := 0; i < min(8, len(lr.S)); i++ {
			fmt.Printf("%.4g ", lr.S[i])
		}
		fmt.Println()
	default:
		fatalf("unknown operation %q", *op)
	}
}

func printStats(f *tcqr.Factorization) {
	s := f.EngineStats
	if s.GemmCalls == 0 {
		fmt.Println("neural engine: no GEMM work (engine disabled, or n <= cutoff so the panel did everything)")
		return
	}
	fmt.Printf("neural engine: %d GEMMs, %.2f Gflop, %d fp16 overflows, %d underflows\n",
		s.GemmCalls, float64(s.Flops)/1e9, s.Overflows, s.Underflows)
	printHazards(f.Hazards)
}

func printHazards(hazards []tcqr.Hazard) {
	for _, h := range hazards {
		fmt.Printf("hazard: %s\n", h)
	}
}

func readCSV(path string, wantRHS bool) (*tcqr.Matrix, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("empty file")
	}
	cols := len(rows[0])
	if wantRHS {
		cols--
	}
	if cols < 1 {
		return nil, nil, fmt.Errorf("need at least %d columns", 1+btoi(wantRHS))
	}
	a := dense.New[float64](len(rows), cols)
	var b []float64
	if wantRHS {
		b = make([]float64, len(rows))
	}
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			return nil, nil, fmt.Errorf("row %d has %d fields, want %d", i, len(row), len(rows[0]))
		}
		for j, field := range row {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("row %d field %d: %v", i, j, err)
			}
			if wantRHS && j == cols {
				b[i] = v
			} else {
				a.Set(i, j, v)
			}
		}
	}
	return a, b, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func check(err error) {
	if err != nil {
		// Library errors already carry the "tcqr: " prefix fatalf adds.
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tcqr: "+format+"\n", args...)
	os.Exit(1)
}
