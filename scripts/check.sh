#!/bin/sh
# Tier-2 repository check: static analysis, the full test suite under the
# race detector, and a short native-fuzz smoke of every fuzz target. Run
# from the repository root. Mirrors `make check-deep`.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...
# Type-check the non-amd64 fallbacks of the assembly kernels (*_other.go) and
# the tests beside them; no native build compiles them. Needs no arm64 host.
echo "== go vet (GOARCH=arm64) =="
GOARCH=arm64 go vet ./...

# staticcheck is optional tooling: run it when the developer has it
# installed, skip (loudly) when not, so the check never depends on a
# network fetch.
if command -v staticcheck >/dev/null 2>&1; then
	echo "== staticcheck =="
	staticcheck ./...
else
	echo "== staticcheck (skipped: not installed) =="
fi

echo "== go test -race =="
go test -race ./...
# The pool's scheduling-sensitive tests again, three times: a precondition
# that can tear shows up as a flake, and one pass hides a flake.
go test -race -count=3 -run 'Pool|AwaitIdle' ./internal/serve
# The library-pipeline tests by name, so their verdict has its own line: one
# envelope behind Factorize and FactorizeTall, one refiner behind single and
# batched solves (whose concurrent columns share one hazard.Report).
go test -race -run 'TestTallEnvelopeMatchesSerial|TestMultiMatchesSinglePerMethod|TestCoalescedSolveHonoursMethod' . ./internal/serve
# The daemon's one cold-factorization path: a served factor is
# tcqr.Factorize's, bit for bit, and no flag selects another.
go test -race -run 'TestServedFactorsAreLibraryFactors|TestFlagsMatchUsageComment' ./internal/serve ./cmd/tcqrd

# The vector rounding kernels against their scalar loops on all 2^32 float32
# patterns, counts included (tier-1 runs a 2^22-pattern stride of the same
# test): the proof behind "any replica, any CPU, same bits". See DESIGN.md §7.
echo "== exhaustive kernel sweeps =="
go test -run '^TestExhaustiveVectorMatchesScalar$' -v ./internal/f16 ./internal/bf16 -exhaustive

# benchmark/ is its own module, so `./...` above never compiles it; vet and
# test it by name so a rename in internal/ cannot break it silently.
echo "== benchmark module =="
go -C benchmark vet ./...
go -C benchmark test ./...

# internal/serve and internal/tcsim hold two fuzz targets each, so those
# runs name their target; the single-target packages keep the unambiguous
# -fuzz=. form.
for pkg in ./internal/f16 ./internal/bf16 ./internal/blas ./internal/wirefmt; do
	echo "== fuzz smoke $pkg =="
	go test -run '^$' -fuzz . -fuzztime 10s "$pkg"
done
for target in FuzzTcEcSplitRoundTrip FuzzGemmTcEcVsFP32; do
	echo "== fuzz smoke ./internal/tcsim ($target) =="
	go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/tcsim
done
echo "== fuzz smoke ./internal/tsqr =="
go test -run '^$' -fuzz '^FuzzTSQRBlockVsSerial$' -fuzztime 10s ./internal/tsqr
# FuzzStreamFrameDecode fuzzes every endpoint's request decode, not only
# stream-append's.
for target in FuzzRetryPolicy FuzzStreamFrameDecode; do
	echo "== fuzz smoke ./internal/serve ($target) =="
	go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/serve
done

# The tc-ec accuracy/ladder battery runs inside `go test -race ./...` above
# already; this named pass makes its verdict visible on its own line: the
# engine accuracy ordering, the escalation property (strictly fewer fp32
# escalations at equal backward error), and the engine-GEMM hot-path
# assertions. See DESIGN.md §16.
echo "== tc-ec battery =="
go test -race -run 'TcEc|Ladder|CholQREngine' . ./internal/tcsim ./internal/gram

# The cluster chaos soak runs inside `go test -race ./...` above already;
# this named pass makes its verdict visible on its own line (and keeps the
# step when someone narrows the suite run above). Seeded fault schedule,
# deterministic: see DESIGN.md §14 and `make cluster-soak`.
echo "== cluster soak =="
go test -race -run 'TestClusterChaosSoak' ./internal/serve

# Spill-tier crash consistency: torn writes and load faults injected during
# a mixed factorize/update/solve storm, then a restart that must quarantine
# exactly the torn files and rewarm every intact one. See DESIGN.md §15 and
# `make chaos`.
echo "== spill chaos soak =="
go test -race -run 'TestSpillChaosSoak' ./internal/serve

echo "== serve smoke =="
sh scripts/serve_smoke.sh

echo "OK"
