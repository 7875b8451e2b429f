package lls

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tcqr/internal/hazard"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
	"tcqr/internal/tcsim"
)

// TestSolveWithFactorBitsGolden pins, by Float64bits, what SolveWithFactor
// returns for each method at the default tolerance and iteration cap: X,
// Iterations and GradNorms, X and GradNorms hashed apart. The inputs are the
// benchmark workloads' four shapes at κ 1e3 (geometric spectrum, standard
// normal b) under the fp16 TensorCore and the plain float32 engines, and one
// fp16 factor of a κ 1e6 A under LSQR, which runs to the iteration cap. A change
// to how the refinement applies R must leave every one of them as it is.
func TestSolveWithFactorBitsGolden(t *testing.T) {
	type key struct {
		name   string
		method Method
	}
	type pin struct {
		x, grads uint64
		iters    int
	}
	want := map[key]pin{
		{"2048x512/fp16/cond1e+03", MethodCGLS}:   {0x6f1021fb12ae92f3, 0x11bbdcec17302d6a, 25},
		{"2048x512/fp16/cond1e+03", MethodLSQR}:   {0xa5535897f83ad4c2, 0x4a8e9752718a1374, 22},
		{"2048x512/fp16/cond1e+03", MethodDirect}: {0xe7f1180e2a98940d, 0xcbf29ce484222325, 0},
		{"2048x512/fp32/cond1e+03", MethodCGLS}:   {0xc93be5427c65e141, 0x31e4e1a5d4e9ba5b, 9},
		{"2048x512/fp32/cond1e+03", MethodLSQR}:   {0x7b58b34e42f2894d, 0xf667eae1beb47b5d, 4},
		{"2048x512/fp32/cond1e+03", MethodDirect}: {0x9ac38d9d2fa2b72d, 0xcbf29ce484222325, 0},
		{"1024x256/fp16/cond1e+03", MethodCGLS}:   {0x6fbb1899312bf3ad, 0xc1f0768dbde73da3, 12},
		{"1024x256/fp16/cond1e+03", MethodLSQR}:   {0x5858b6b400571d53, 0xd42ace8361be85d3, 8},
		{"1024x256/fp16/cond1e+03", MethodDirect}: {0xa08452db926d2765, 0xcbf29ce484222325, 0},
		{"1024x256/fp32/cond1e+03", MethodCGLS}:   {0xc51dd5934d14cd1c, 0xaa552fd080f433ee, 8},
		{"1024x256/fp32/cond1e+03", MethodLSQR}:   {0x7b5d06aa764c84a4, 0xf06bb7fae7ad7de9, 4},
		{"1024x256/fp32/cond1e+03", MethodDirect}: {0x0009bbba5af7e7ef, 0xcbf29ce484222325, 0},
		{"4096x128/fp16/cond1e+03", MethodCGLS}:   {0x1c38915fc3e24be7, 0xed3b595682334d85, 9},
		{"4096x128/fp16/cond1e+03", MethodLSQR}:   {0x9c14855d18cd90e2, 0x9e8d8cbcb5b01a6c, 4},
		{"4096x128/fp16/cond1e+03", MethodDirect}: {0xdf5c6fec9111e136, 0xcbf29ce484222325, 0},
		{"4096x128/fp32/cond1e+03", MethodCGLS}:   {0x28f182afd7b232a0, 0x7f351610d752c8eb, 8},
		{"4096x128/fp32/cond1e+03", MethodLSQR}:   {0xc7921d9cacf4d7f4, 0x1ea447dc96875c1c, 4},
		{"4096x128/fp32/cond1e+03", MethodDirect}: {0x6211d0e995384b7e, 0xcbf29ce484222325, 0},
		{"2048x128/fp16/cond1e+03", MethodCGLS}:   {0x0eedf617b2d1cbe8, 0x80434f2769c86d5e, 9},
		{"2048x128/fp16/cond1e+03", MethodLSQR}:   {0x78a7593fa200e18a, 0xc2972ecfe9dfc5ea, 4},
		{"2048x128/fp16/cond1e+03", MethodDirect}: {0xa6a96eca7dc89257, 0xcbf29ce484222325, 0},
		{"2048x128/fp32/cond1e+03", MethodCGLS}:   {0x2e4e7bebd82a611c, 0xf704424802a1c1bf, 9},
		{"2048x128/fp32/cond1e+03", MethodLSQR}:   {0x05695fe1e14eeedb, 0x3bb04200ffd53be0, 4},
		{"2048x128/fp32/cond1e+03", MethodDirect}: {0x1e5c95ec1fd11b18, 0xcbf29ce484222325, 0},
		{"1024x256/fp16/cond1e+06", MethodLSQR}:   {0xfc6d00a0c4fc745f, 0xf7a6d3914634c45e, 200},
	}
	cases := []struct {
		m, n   int
		cond   float64
		engine tcsim.Kind
		seed   int64
		ms     []Method
	}{
		{2048, 512, 1e3, tcsim.KindTC, 110, []Method{MethodCGLS, MethodLSQR, MethodDirect}},
		{2048, 512, 1e3, tcsim.KindFP32, 111, []Method{MethodCGLS, MethodLSQR, MethodDirect}},
		{1024, 256, 1e3, tcsim.KindTC, 112, []Method{MethodCGLS, MethodLSQR, MethodDirect}},
		{1024, 256, 1e3, tcsim.KindFP32, 113, []Method{MethodCGLS, MethodLSQR, MethodDirect}},
		{4096, 128, 1e3, tcsim.KindTC, 114, []Method{MethodCGLS, MethodLSQR, MethodDirect}},
		{4096, 128, 1e3, tcsim.KindFP32, 115, []Method{MethodCGLS, MethodLSQR, MethodDirect}},
		{2048, 128, 1e3, tcsim.KindTC, 116, []Method{MethodCGLS, MethodLSQR, MethodDirect}},
		{2048, 128, 1e3, tcsim.KindFP32, 117, []Method{MethodCGLS, MethodLSQR, MethodDirect}},
		{1024, 256, 1e6, tcsim.KindTC, 118, []Method{MethodLSQR}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%dx%d/%s/cond%.0e", tc.m, tc.n, tc.engine, tc.cond)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			a := matgen.WithCond(rng, tc.m, tc.n, tc.cond, matgen.Geometric)
			b := matgen.Normal(rng, tc.m, 1).Col(0)
			f, err := rgs.Factor(a, rgs.Options{Engine: tc.engine.New()})
			if err != nil {
				t.Fatal(err)
			}
			for _, method := range tc.ms {
				res, err := SolveWithFactor(f, a, b, SolveOptions{Method: method})
				if err != nil {
					t.Fatalf("%v: %v", method, err)
				}
				got := pin{bitsHash(res.X), bitsHash(res.GradNorms), res.Iterations}
				t.Logf("%v: %d iterations, X %#016x, GradNorms %#016x", method, got.iters, got.x, got.grads)
				if runtime.GOARCH != "amd64" {
					continue // bits recorded on amd64; other ports may fuse multiply-adds in the Go loops
				}
				if w, ok := want[key{name, method}]; !ok || got != w {
					t.Errorf("%v: %d iterations, X %#016x, GradNorms %#016x; recorded %d, %#016x, %#016x",
						method, got.iters, got.x, got.grads, w.iters, w.x, w.grads)
				}
			}
		})
	}
}

// TestSolveWithFactorWithoutQ: CGLS and LSQR read only A and R, so a factor
// without its Q (the daemon's cached form) gives them the bits the full
// factor gives, and the direct solve, which needs Q, answers the typed shape
// error instead of dereferencing it.
func TestSolveWithFactorWithoutQ(t *testing.T) {
	rng := rand.New(rand.NewSource(119))
	a := matgen.WithCond(rng, 512, 64, 1e3, matgen.Geometric)
	b := matgen.Normal(rng, 512, 1).Col(0)
	f, err := rgs.Factor(a, rgs.Options{Engine: tcsim.KindTC.New()})
	if err != nil {
		t.Fatal(err)
	}
	rOnly := &rgs.Result{R: f.R}
	for _, method := range []Method{MethodCGLS, MethodLSQR} {
		want, err := SolveWithFactor(f, a, b, SolveOptions{Method: method})
		if err != nil {
			t.Fatalf("%v with Q: %v", method, err)
		}
		got, err := SolveWithFactor(rOnly, a, b, SolveOptions{Method: method})
		if err != nil {
			t.Fatalf("%v without Q: %v", method, err)
		}
		if bitsHash(got.X) != bitsHash(want.X) || got.Iterations != want.Iterations {
			t.Errorf("%v: without Q X %#016x in %d iterations, with Q %#016x in %d",
				method, bitsHash(got.X), got.Iterations, bitsHash(want.X), want.Iterations)
		}
	}
	if _, err := SolveWithFactor(rOnly, a, b, SolveOptions{Method: MethodDirect}); !errors.Is(err, hazard.ErrShape) {
		t.Errorf("direct solve without Q: %v, want an error wrapping ErrShape", err)
	}
}
