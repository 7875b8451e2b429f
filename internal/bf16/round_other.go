//go:build !amd64

package bf16

// Non-amd64 platforms run the scalar loops everywhere.
const useVector = false

func roundVec(dst, src *float32, n int) {
	panic("bf16: vector kernel called on non-amd64 platform")
}

func roundCountVec(x *float32, n int) (overflow int64) {
	panic("bf16: vector kernel called on non-amd64 platform")
}
