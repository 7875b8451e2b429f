package main

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tcqr/internal/cpufeat"
	"tcqr/internal/metrics"
)

// TestRegisterBuildInfo pins the build-info gauge contract: a constant-1
// sample carrying the stamped version, the Go toolchain and the selected
// kernel set as labels, in the standard <name>_info shape scrapers join
// against.
func TestRegisterBuildInfo(t *testing.T) {
	reg := metrics.NewRegistry()
	registerBuildInfo(reg)

	var sb strings.Builder
	reg.WriteText(&sb)
	text := sb.String()
	if !strings.Contains(text, "# TYPE tcqrd_build_info gauge") {
		t.Errorf("exposition lacks the gauge TYPE line:\n%s", text)
	}
	want := fmt.Sprintf("tcqrd_build_info{version=%q,go_version=%q,kernels=%q} 1", version, runtime.Version(), cpufeat.Kernels())
	if !strings.Contains(text, want) {
		t.Errorf("exposition lacks %q:\n%s", want, text)
	}
}
