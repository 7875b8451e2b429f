//go:build !amd64

package cpufeat

// No vector kernels exist off amd64: every feature is the constant false.
const AVX, AVX2, F16C, AVX512F = false, false, false, false
