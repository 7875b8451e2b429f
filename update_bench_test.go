package tcqr

import (
	"fmt"
	"testing"

	"tcqr/internal/qrupdate"
)

// BenchmarkUpdateVsRefactorize compares the incremental update path with
// refactorizing from scratch: appending a row block to a cached factorization
// via the O(m·n·k + n²·(k+n)) explicit-Q Householder update, against
// refactorizing the stacked matrix at O(m·n²), and the explicit-Q downdate.
// At 4096×256 the 64-row point records how the append's win decays toward
// n/k = 4 for fatter appends. At the daemon's 2048×128+16 shape (the
// serve-update-mix workload) AppendR and DowndateR time the R kernels alone,
// which is all the daemon runs: the annihilation, and the dchdd sweep over
// the removed rows.
//
// Medians of five -benchtime 20x runs at GOMAXPROCS 2 on a 2-vCPU x86-64
// host; in parentheses, the same sub-benchmark at the commit before the R
// kernels moved to internal/qrupdate:
//
//	4096×256+16:  UpdateAppend 10.1 ms (9.6), Refactorize 21.6 ms (22.6),
//	              Downdate 32.7 ms (34.0): the append wins about 2.2×, not 10×
//	2048×128+16:  UpdateAppend 2.9 ms, Downdate 6.3 ms, Refactorize 3.6 ms,
//	              AppendR 0.59 ms, DowndateR 0.62 ms
//
// The updated factors' backward error is asserted against the serial bound
// once, in setup, so a regression fails the benchmark rather than silently
// reporting fast wrong answers.
func BenchmarkUpdateVsRefactorize(b *testing.B) {
	for _, sh := range []struct {
		m, n int
		ks   []int
	}{{4096, 256, []int{16, 64}}, {2048, 128, []int{16}}} {
		m, n := sh.m, sh.n
		a := randBlock(1, m, n, 1)
		cfg := Config{}
		f, err := Factorize(a, cfg)
		if err != nil {
			b.Fatalf("seed factorize: %v", err)
		}
		for _, k := range sh.ks {
			block := randBlock(int64(2+k), k, n, 1)
			full := stack(a, block)
			ref, err := Factorize(full, cfg)
			if err != nil {
				b.Fatalf("reference refactorize (+%d rows): %v", k, err)
			}
			up, err := UpdateAppendRows(f, block, cfg)
			if err != nil {
				b.Fatalf("update (+%d rows): %v", k, err)
			}
			beUp, beRef := up.BackwardError(full), ref.BackwardError(full)
			if beUp > 2*beRef+1e-6 {
				b.Fatalf("updated backward error %g outside the serial bound (ref %g)", beUp, beRef)
			}

			b.Run(fmt.Sprintf("UpdateAppend/%dx%d+%d", m, n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := UpdateAppendRows(f, block, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("Refactorize/%dx%d", m+k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Factorize(full, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			// The row count rides in front of "rows" so the trailing "-<int>"
			// never parses as a GOMAXPROCS suffix in benchmark reports.
			b.Run(fmt.Sprintf("Downdate/%dx%d-%drows", m+k, n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := UpdateRemoveRows(up, k, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			if m != 2048 {
				continue
			}
			b.Run(fmt.Sprintf("AppendR/%dx%d+%d", m, n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := qrupdate.AppendR(f.R, block); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("DowndateR/%dx%d-%drows", m+k, n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := qrupdate.DowndateR(up.R, block); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
