# Developer entry points. The Go toolchain is the only dependency.

GO ?= go

# The tests that hold the library pipeline to one of each stage; named so
# they can run under -race on their own (a served solve is the library's
# single-RHS solve, and the daemon runs concurrent ones over one factor).
PIPELINE_TESTS = TestServedSolvesAreLibrarySolves|TestSolveOnHazardOptionChangesNothing

# The tests that hold the daemon to one cold-factorization path: a served
# factor is tcqr.Factorize's, bit for bit, and no flag selects another.
ONE_PATH_TESTS = TestServedFactorsAreLibraryFactors|TestFlagsMatchUsageComment

.PHONY: build check check-race check-deep check-exhaustive check-benchmark \
	check-run-patterns lint reach fuzz chaos cluster-soak bench serve \
	serve-smoke clean

build:
	$(GO) build ./...

# Static analysis: gofmt and vet always, staticcheck when installed (it is
# optional tooling; the lint target must not depend on a network fetch). The
# arm64 vet type-checks every *_other.go fallback of the amd64 assembly (and
# the tests beside them), which no native build compiles; it needs no arm64
# machine. The arm64 listing after it holds the numerical path to one
# rounding per product on every port: the root package, internal/blas (whose
# Go loops are the fallback and the oracle of the vector kernels),
# internal/lls, and the packages under the factorization (dense, accuracy,
# chol, tcsim, gram, rgs, house, f16, bf16, tsqr, lu) and the update path's R
# kernels (qrupdate), whose bits and those of the refinement and the update
# path are recorded hashes. The arm64 compiler
# fuses an unconverted x*y + z, so a function of those packages (each generic
# instantiation, in whichever package compiles it) must hold no
# FMADD/FMSUB/FNMADD/FNMSUB; the fix is T(x*y) + z. Left out: svd (the
# low-rank path's Jacobi sweeps, refereed by tolerance, not by bits), matgen
# (test inputs), and perfmodel, metrics and experiments (timing models,
# histograms and table formatting, no factor or solve). The build cache
# replays the listing, so the step costs about 0.1 s when warm.
lint: reach
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@{ GOARCH=arm64 $(GO) build -gcflags=-S . ./internal/... 2>&1 || echo "arm64 build of . ./internal/... failed"; } | \
	awk '/^arm64 build of/ { bad = 1; print } \
		/^[^ \t]/ && / STEXT / { sym = $$1 } \
		/FMADD|FMSUB|FNMADD|FNMSUB/ && sym ~ /^(tcqr\.|tcqr\/internal\/(blas|lls|dense|accuracy|chol|tcsim|gram|rgs|house|f16|bf16|tsqr|lu|qrupdate)\.)/ && !seen[sym $$3]++ { \
			bad = 1; print "fused multiply-add in " sym " at " $$3 ": " $$4 } \
		END { if (bad) exit 1; print "tcqr and internal/{blas,lls,dense,accuracy,chol,tcsim,gram,rgs,house,f16,bf16,tsqr,lu,qrupdate}: no fused multiply-add in the arm64 listing" }'
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck skipped: not installed"; \
	fi

# Every package of the main module must be in the dependency closure of a
# command, an example or the benchmark module (`go list -deps` reads only the
# checkout): a package nothing runs is deleted, not kept. internal/roundtest
# is the one exception, a helper only tests import.
reach:
	@reached=$$({ $(GO) list -deps ./cmd/... ./examples/... && $(GO) -C benchmark list -deps ./...; } | sort -u); \
	orphans=$$($(GO) list ./... | grep -vx 'tcqr/internal/roundtest' | \
		while read -r p; do echo "$$reached" | grep -qx "$$p" || echo "$$p"; done); \
	if [ -n "$$orphans" ]; then \
		echo "reach: no command, example or benchmark imports:"; echo "$$orphans"; exit 1; fi

# Tier-1 verification: everything must build and pass. The pipeline and
# one-path tests run once more under the race detector, which the tier-1 pass
# itself does not use (check-race runs the whole suite under it, so it names
# neither again). The level-2 bit-identity and allocation tests and the
# refinement's run once more at one, two and four processors: the float64
# Gemv is split between the caller and helpers only from two up, and its bits
# and its zero allocations must not depend on that; nor may those of the
# triangular solve on the float32 R the refinement applies, which must be the
# solve's on R's float64 widening (TestTrsvWideBitIdentical); nor may
# SolveWithFactor's bits per method, alone or on three columns solved at
# once over one factor; nor may CGLS's and LSQR's
# allocation count, which is what they return (their working vectors come
# from a pooled slab), or their bits when every slab they take is poisoned
# with NaN, or CGLS's recorded bits: its X and GradNorms on one trajectory
# per way a run ends, and its X on the workloads' solves, which a change to
# when CGLS stops must leave as they are. So do the packed GEMM's
# goldens, kernel-family, determinism and allocation tests, with the
# exact-product family's (its tiles against mul+add, its routing, the
# binary16 declaration of the hooks that select it, and the bfloat16 case that
# must not): it splits the rows of a small output between workers and packs
# op(B) on all of them. So do the
# update path's goldens, the library's and its R kernels' (and what those
# kernels allocate: their working copies are pooled), and the downdate's
# allocation bound, whose Q′ is that
# GEMM run in row strips, and the append's allocation count, whose
# compact-WY blocks run that GEMM too, and the float64-input Factorize
# against its narrowing's. So do the factorization's input sweep and its
# finiteness scan of Q, which run in column chunks on the same runner from
# 32768 elements up: Factor's bits from either source width, the error
# naming the first offender, and FactorizeR against Factorize with its
# allocation gate, and SolveLeastSquares, which factors with FactorizeR
# unless its method needs Q, with its own. FactorizeR's pooled workspace is shared between
# goroutines, so its concurrent calls run under the race detector too. And the
# CAQR panel's: its tiles run as tasks on the same runner, and its MGS tile
# kernel, its bits and its allocation count must not depend on how many
# processors take them; nor may a served cold miss's, whose CAQR tiles run
# there too: its factor is the library's, and its bytes stay under the
# cold-frame gate; nor may a served cache-hit solve's object count, nor a
# JSON solve's bytes, whose body buffer is pooled per processor. The pool
# recycles its tasks and deadline timers across goroutines, so its
# queueing, deadline and cache-hit allocation tests run once more under the
# race detector, and so does the spill tier's reference model, whose
# writer shares the tier's logs and counters with a scrape's Stats. The
# tile-tree workspaces go round a sync.Pool, the one piece of factorization
# state goroutines share, so concurrent panels of different shapes run ten times under the race detector. The metrics
# registry runs under it too: a labeled family's With takes its read lock,
# then its write lock on a miss, and a histogram's sum and max are CAS
# loops, concurrent code the tier-1 pass runs without the detector. So does
# the cluster tier: its probe loop, its handoff loop and Replicate's
# goroutines share peer state.
check: lint check-benchmark check-run-patterns
	$(GO) test ./...
	$(GO) test -race ./internal/metrics
	$(GO) test -race ./internal/cluster
	$(GO) test -race -run '$(PIPELINE_TESTS)' ./internal/serve
	$(GO) test -race -run '$(ONE_PATH_TESTS)' ./internal/serve ./cmd/tcqrd
	$(GO) test -race -count=10 -run 'TestTileTreePoolConcurrentShapes' ./internal/gram
	$(GO) test -cpu 1,2,4 -run 'BitIdentical|NoAllocs|Procs|Allocations|Poison|Golden|KeepX' ./internal/blas ./internal/lls
	$(GO) test -cpu 1,2,4 -run 'Golden|Determinism|Kernel|Alloc|ExactProduct|BF16ProductsNotExact|Binary16Hooks' ./internal/blas ./internal/tcsim ./internal/rgs
	$(GO) test -cpu 1,2,4 -run 'Float64SourceMatchesNarrowing|SweepNamesFirstOffender|FactorInIgnoresWorkspace|FiniteScansEveryColumn' ./internal/rgs
	$(GO) test -cpu 1,2,4 -run 'UpdateBits|DowndateAllocates|AppendAllocates|FactorizeEitherWidth|FactorizeR|SolveLeastSquaresAllocBytes|SolveLeastSquaresRefineNoneKeepsQ|RKernelBits|RKernelsAllocate' . ./internal/qrupdate
	$(GO) test -race -run 'TestFactorizeRConcurrent|TestFactorizeRKeepsNoWorkspace' .
	$(GO) test -cpu 1,2,4 -run 'BitIdentical|Alloc|Procs' ./internal/gram
	$(GO) test -cpu 1,2,4 -run 'ColdFrameSolveAlloc|JSONSolveAlloc|CacheHitSolveAllocs|ServedFactorsAreLibraryFactors' ./internal/serve
	$(GO) test -race -run 'Pool|Deadline|CacheHitSolveAllocs|SpillMatchesReferenceModel' ./internal/serve

# `go test -run` passes silently when its pattern selects nothing, so a test
# renamed or deleted out from under a line of check would empty that gate
# unseen. Every alternative of every -run pattern in check's dry run must
# match a test in its line's packages (scripts/check_run_patterns.sh). The
# dry run of check-deep is read too: its chaos, cluster-soak, race and tc-ec
# lines name their tests the same way, and a deleted soak left behind as an
# alternative there would select nothing and pass.
check-run-patterns:
	@{ $(MAKE) -s --no-print-directory -n -o lint -o check-benchmark -o check-run-patterns check; \
		$(MAKE) -s --no-print-directory -n -o lint -o check-benchmark -o serve-smoke check-deep; } | \
		sh scripts/check_run_patterns.sh

# benchmark/ is its own module, so `./...` from the root never compiles it:
# vet and test it by name, or a rename in internal/ breaks the benchmark
# silently.
check-benchmark:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Tier-2 verification: the full suite under the race detector (the packed
# GEMM parallelizes over C tiles; this is the gate for it), then the pool's
# scheduling-sensitive tests — queueing, drain, deadlines in the queue —
# three more times: a precondition that can tear shows up as a flake, and
# one pass hides a flake.
check-race: lint
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'Pool|AwaitIdle|Drain|Deadline' ./internal/serve

# Short native-fuzz smoke of the format round trips, the packed GEMM golden
# property, the tc-ec split/GEMM error-bound properties, the TSQR-vs-serial
# equivalence, and the serving decode paths (FuzzRequestDecode fuzzes every
# endpoint's request through both the frame and the JSON decoder, so it gets
# twenty seconds; FuzzSpillDecode the spill-file loader), and the vector
# level-2 kernels against the Go loops, bit for bit, the triangular solve on
# a float32 triangle against the solve on its float64 widening, bit for bit,
# and the content hash's view-equals-clone invariant.
# internal/blas, internal/serve and internal/tcsim hold several targets each,
# so those runs name their target; the single-target packages keep the
# unambiguous -fuzz=. form. A spill file is hundreds of bytes and the
# fuzzer's minimizer is quadratic in that, so FuzzSpillDecode caps it:
# uncapped, the first interesting input takes the rest of the ten seconds.
fuzz:
	$(GO) test -run '^$$' -fuzz . -fuzztime 10s ./internal/dense
	$(GO) test -run '^$$' -fuzz . -fuzztime 10s ./internal/f16
	$(GO) test -run '^$$' -fuzz . -fuzztime 10s ./internal/bf16
	$(GO) test -run '^$$' -fuzz '^FuzzGemmPackedVsReference$$' -fuzztime 10s ./internal/blas
	$(GO) test -run '^$$' -fuzz '^FuzzLevel2VectorVsGeneric$$' -fuzztime 10s ./internal/blas
	$(GO) test -run '^$$' -fuzz '^FuzzTrsvWide$$' -fuzztime 10s ./internal/blas
	$(GO) test -run '^$$' -fuzz . -fuzztime 10s ./internal/wirefmt
	$(GO) test -run '^$$' -fuzz '^FuzzTcEcSplitRoundTrip$$' -fuzztime 10s ./internal/tcsim
	$(GO) test -run '^$$' -fuzz '^FuzzGemmTcEcVsFP32$$' -fuzztime 10s ./internal/tcsim
	$(GO) test -run '^$$' -fuzz '^FuzzTSQRBlockVsSerial$$' -fuzztime 10s ./internal/tsqr
	$(GO) test -run '^$$' -fuzz '^FuzzRequestDecode$$' -fuzztime 20s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSpillDecode$$' -fuzztime 10s -fuzzminimizetime 200ms ./internal/serve

# Chaos/soak battery under the race detector: 64 concurrent clients against
# a seeded fault schedule (panics, delays, decode errors at every failpoint
# layer), plus the metamorphic no-silent-garbage property over the
# adversarial matrix battery, plus the spill-tier crash-consistency soak
# (torn writes and load faults during a mixed factorize/update/solve storm,
# then a restart that must quarantine exactly the torn files and rewarm the
# rest). See DESIGN.md §11 and §15.
chaos:
	$(GO) test -race -run 'TestChaosBattery|TestMetamorphicNoSilentGarbage|TestSpillChaosSoak' -v ./internal/serve

# Cluster-tier soak under the race detector: a seeded (deterministic)
# 3-node in-process cluster with every cluster.* failpoint armed, one node
# killed mid-wave. Asserts zero lost responses, every key resolvable via a
# survivor, flat warm-solve p99, and the forwarding accounting invariant.
# See DESIGN.md §14.
cluster-soak:
	$(GO) test -race -run 'TestClusterChaosSoak' -v ./internal/serve

# The bit-identity proof of the vector rounding kernels (binary16 round,
# round+count and tc-ec residual in internal/f16; bfloat16 round and
# round+count in internal/bf16): all 2^32 float32 patterns through each
# kernel and its scalar loop, one to two minutes on two cores. Tier-1 runs a
# 2^22-pattern stride of the same test.
check-exhaustive:
	$(GO) test -run '^TestExhaustiveVectorMatchesScalar$$' -v ./internal/f16 ./internal/bf16 -exhaustive

# Deep verification, and the one list of gates (scripts/check.sh execs this
# target): static analysis, the race gate, the exhaustive kernel sweeps, the
# benchmark module, fuzz smoke, and the daemon end-to-end smoke (one smoke:
# tcqrd -smoke starts and drives every daemon it checks). Three named passes repeat tests the race gate
# already ran, each for one reason: chaos and cluster-soak are the verbose,
# seeded soak verdicts DESIGN.md §11/§14/§15 point operators at, and the
# tc-ec battery below puts the engine accuracy ordering and the escalation
# property (DESIGN.md §16) on a line of their own. The last line runs every
# kernel-layer and serving benchmark once, so benchmark code cannot rot
# unseen. Tier-1 `check` stays fast; this one takes several minutes.
check-deep: lint check-race check-exhaustive check-benchmark fuzz chaos \
		cluster-soak serve-smoke
	$(GO) test -race -run 'TcEc|Ladder|CholQREngine' . ./internal/tcsim ./internal/gram
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/blas ./internal/gram ./internal/lls ./internal/serve

# Run the factorization-serving daemon on its default port.
serve:
	$(GO) run ./cmd/tcqrd

# End-to-end smoke of the daemon, one smoke: build tcqrd and run its -smoke,
# which re-executes the binary as the daemons each scenario needs (API and
# update contracts on a spill directory, a restart on that directory, a
# fault-armed daemon, a three-process cluster losing a node to SIGKILL) and
# requires exit 0 from every one it SIGTERMs. cmd/tcqrd/scenarios.go is the
# table.
serve-smoke:
	sh scripts/serve_smoke.sh

# The repository's one benchmark (BENCHMARK.json, benchmark/README.md): four
# workloads, end-to-end metrics plus the per-layer budget, as JSON on stdout.
bench:
	$(GO) run -C benchmark .

clean:
	$(GO) clean ./...
