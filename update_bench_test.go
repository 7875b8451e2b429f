package tcqr

import (
	"fmt"
	"testing"
)

// BenchmarkUpdateVsRefactorize is the acceptance benchmark for the
// incremental update path: appending a row block to a cached
// 4096×256 factorization via the O(m·n·k + n²·(k+n)) Householder update,
// against refactorizing the stacked matrix from scratch at O(m·n²). The
// asymptotic win is ~n/k, so the acceptance gate (≥10× at 4096×256) is
// measured at the 16-row block; the 64-row point records how the win decays
// toward n/k = 4 for fatter appends. The updated factors' backward error is
// asserted against the serial bound once, in setup, so a regression fails
// the benchmark rather than silently reporting fast wrong answers.
func BenchmarkUpdateVsRefactorize(b *testing.B) {
	const m, n = 4096, 256
	a := randBlock(1, m, n, 1)
	cfg := Config{}
	f, err := Factorize(a, cfg)
	if err != nil {
		b.Fatalf("seed factorize: %v", err)
	}

	for _, k := range []int{16, 64} {
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

		b.Run(fmt.Sprintf("UpdateAppend/4096x256+%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := UpdateAppendRows(f, block, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Refactorize/%dx256", m+k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Factorize(full, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The row count rides in front of "rows" so the trailing "-<int>"
		// never parses as a GOMAXPROCS suffix in benchmark reports.
		b.Run(fmt.Sprintf("Downdate/%dx256-%drows", m+k, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := UpdateRemoveRows(up, k, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
