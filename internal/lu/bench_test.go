package lu

import (
	"testing"

	"tcqr/internal/tcsim"
)

func BenchmarkFactor(b *testing.B) {
	_, a := randSquare(1, 256)
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"FP32", Options{}},
		{"TC", Options{Engine: &tcsim.TensorCore{}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(2 * 256 * 256 * 256 / 3)
			for i := 0; i < b.N; i++ {
				if _, err := Factor(a, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
