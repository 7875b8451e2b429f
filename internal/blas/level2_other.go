//go:build !amd64

package blas

// Non-amd64 platforms run the Go loops of level2.go everywhere.
const useVectorLevel2 = false

func gemvN8F64(rows int, a *float64, stride int, coef *[8]float64, y *float64) (done int) {
	panic("blas: vector kernel called on non-amd64 platform")
}

func gemvT8F64(rows int, a *float64, stride int, x *float64, alpha float64, y *float64) (ok bool) {
	panic("blas: vector kernel called on non-amd64 platform")
}

func gemvN8Wide(rows int, a *float32, stride int, coef *[8]float64, y *float64) (done int) {
	panic("blas: vector kernel called on non-amd64 platform")
}

func gemvT8Wide(rows int, a *float32, stride int, x *float64, alpha float64, y *float64) (ok bool) {
	panic("blas: vector kernel called on non-amd64 platform")
}

func gemvT8F32(rows int, a *float32, stride int, x *float32, alpha float32, y *float32) (ok bool) {
	panic("blas: vector kernel called on non-amd64 platform")
}

func colUpdateF32(n int, x *float32, t float32, y *float32) (done int) {
	panic("blas: vector kernel called on non-amd64 platform")
}
