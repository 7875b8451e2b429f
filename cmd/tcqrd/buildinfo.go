package main

import (
	"runtime"

	"tcqr/internal/cpufeat"
	"tcqr/internal/metrics"
)

// version identifies the build in the -version flag and the tcqrd_build_info
// metric. "dev" for plain `go build`; releases stamp it with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/tcqrd
var version = "dev"

// registerBuildInfo publishes the conventional build-info gauge: a constant 1
// whose labels carry the interesting values, so dashboards can join any other
// tcqrd_* series against the version that produced it. The kernels label is
// cpufeat.Kernels(): which GEMM micro-kernel and rounding path this node's
// CPU selected. Every value computes the same bits, so a replica that fell
// back to "avx" or "scalar" shows up here and in its latencies, never in an
// answer.
func registerBuildInfo(reg *metrics.Registry) {
	reg.GaugeVec("tcqrd_build_info",
		"Build metadata; constant 1 with version and kernel-selection labels.",
		"version", "go_version", "kernels").
		With(version, runtime.Version(), cpufeat.Kernels()).Set(1)
}
