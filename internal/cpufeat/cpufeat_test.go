package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestFeaturesConsistent(t *testing.T) {
	if (AVX2 || F16C || AVX512F) && !AVX {
		t.Errorf("AVX2=%v F16C=%v AVX512F=%v without AVX: the YMM-state check must gate all of them", AVX2, F16C, AVX512F)
	}
	want := map[string]bool{"avx2+f16c": AVX2 && F16C, "avx2": AVX2 && !F16C, "avx": AVX && !AVX2, "scalar": !AVX}
	base, zmm := strings.CutSuffix(Kernels(), "+avx512f")
	if !want[base] || zmm != AVX512F {
		t.Errorf("Kernels() = %q with AVX=%v AVX2=%v F16C=%v AVX512F=%v", Kernels(), AVX, AVX2, F16C, AVX512F)
	}
	if runtime.GOARCH != "amd64" && Kernels() != "scalar" {
		t.Errorf("Kernels() = %q on %s, want scalar", Kernels(), runtime.GOARCH)
	}
}

// TestProbeMatchesKernel checks the CPUID decoding against the flags line the
// Linux kernel derives from the same registers. A flag in /proc/cpuinfo also
// means the kernel enabled the state it needs, so the two must agree exactly.
func TestProbeMatchesKernel(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("needs /proc/cpuinfo on linux/amd64")
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(data), "\n") {
		if name, rest, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(rest) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	for name, got := range map[string]bool{"avx": AVX, "avx2": AVX2, "f16c": F16C, "avx512f": AVX512F} {
		if got != flags[name] {
			t.Errorf("%s: probe says %v, /proc/cpuinfo says %v", name, got, flags[name])
		}
	}
}
