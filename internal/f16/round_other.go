//go:build !amd64

package f16

// Non-amd64 platforms run the scalar loops everywhere.
const useVector = false

func roundVec(dst, src *float32, n int) {
	panic("f16: vector kernel called on non-amd64 platform")
}

func roundCountVec(x *float32, n int) (overflow, underflow int64) {
	panic("f16: vector kernel called on non-amd64 platform")
}

func residualVec(x *float32, n int) {
	panic("f16: vector kernel called on non-amd64 platform")
}
