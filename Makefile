# Tier-1 gate and benchmark tooling. See EXPERIMENTS.md for methodology.
# `make ci` mirrors .github/workflows/ci.yml locally.

GO ?= go

.PHONY: verify build vet test test-race chaos crash bench bench-ablation bench-smoke repo-bench-smoke server-smoke outofcore-smoke loc ci

## verify: the tier-1 gate — build, vet, the full test suite, and the race
## detector over the one parallel mechanism (the dispatcher's claim queue,
## the MIL morsel loop, the key-rep fill).
verify: build vet test test-race

build:
	$(GO) build ./...

## vet: also compiles the separately-moduled benchmark (seconds): bench/ may
## not be edited to follow a refactor, so an internal/... signature change
## that breaks its frozen imports (README, "The repo benchmark") must fail
## here, not in the benchmark pipeline. A tree that is not gofmt-clean fails
## too, listing the files, and so does a property write outside
## internal/bat/props.go (operators claim only through bat.Derive).
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo 'not gofmt-clean:'; gofmt -l .; exit 1; }
	@test -z "$$($(PROP_WRITES))" || { echo 'property writes outside internal/bat/props.go:'; $(PROP_WRITES); exit 1; }

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

## chaos: the query-lifecycle chaos suite under the race detector, repeated
## — concurrent sessions run the Figure-9 mix while injected statement
## faults, latency, cancellations and deadlines fire over a seed list (odd
## seeds over a simulated buffer pool, even seeds without one, as moaserve
## serves; plus the no-injection cancellation run); survivors must be
## bit-identical to the sequential reference and fault/hit/gauge accounting
## must balance exactly at quiesce. Already part of `make test`/`test-race`
## once; this target reruns it for flake hunting. CHAOS_SEEDS=<s1>,<s2>,...
## overrides the default deterministic {1,2,3} seed list. Then
## the plan-optimizer differential under the race detector: every Figure-9
## query and random well-typed queries must answer byte-identically as
## translated and as mil.Optimize'd. OPTIMIZE_SEEDS=<s1>,<s2>,... overrides
## the default deterministic {1,2} random-query seeds; CI runs this with
## fresh seeds per build.
chaos:
	$(GO) test ./internal/server -race -count=2 \
		-run 'TestChaosQueryLifecycle|TestCancellationCleanliness|TestCancelMidBuildRebuildsOnce'
	$(GO) test ./internal/rewrite -race -count=1 -run 'TestOptimizeDifferential'

## crash: the durability crash-injection suite under the race detector —
## kill the process (simulated via in-test panic at seven injection points:
## around the WAL fsync, the epoch swap, between the checkpoint pack's
## fsync and its manifest, and around the checkpoint rename) and require
## recovery to land bit-identically on the pre- or post-ingest epoch, never
## a blend, with eight concurrent readers pinned across the kill at the
## swap point; plus damaged checkpoints (one: fall back a generation; both:
## refuse to open), the heap-file pack layout and the checkpoint layout and
## byte counters. CRASH_SEEDS=<s1>,<s2>,... overrides the default
## deterministic {1,2} seed list; CI runs this with fresh seeds per build.
crash:
	$(GO) test ./internal/epoch -race -count=1 \
		-run 'TestCrashMatrix|TestTornTail|TestConcurrentReadersAcrossCrash|TestColumnarBootstrapAndMap|TestBothCheckpointsDamagedRefused'
	$(GO) test ./internal/storage/heapfile -race -count=1 \
		-run 'TestPartsPageAligned|TestWriterCreatesOnePack|TestBorrowLinksPackOnce|TestCommittedBytesConservation|TestOpenMapsEachFileOnce|TestOpenRefusesPartPastEnd|TestClosePartKeepsSiblings|TestPerPartLayoutOpensAndLends|TestOpenRejectsCorruption|TestBorrowSharesBytes|TestBorrowCopyFallback'
	$(GO) test ./internal/tpcd -race -count=1 \
		-run 'TestCheckpointPackLayout|TestCheckpointBorrowsUnchangedColumns'
	$(GO) test ./internal/server -race -count=1 \
		-run 'TestIngestHistogramConservation'

## bench: the full benchmark sweep with allocation accounting.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=3s .

## bench-ablation: the kernel ablations and the server-throughput sweep
## (fast inner loop while tuning).
bench-ablation:
	$(GO) test -run '^$$' -bench 'BenchmarkAblation|BenchmarkServerThroughput' -benchmem -benchtime=3s .

## bench-smoke: one iteration of every paper-figure benchmark (Figures 8,
## 9 and 10), ablation and server-throughput variant — proves the bench
## harness itself still builds and runs (the CI bench job). No timing value.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure|BenchmarkAblation|BenchmarkServerThroughput' -benchmem -benchtime=1x .

## repo-bench-smoke: the repo benchmark's own tests (bench/ is a module of
## its own, so `go test ./...` at the root never reaches it): every
## BENCHMARK.json workload runs for about a second and the output is checked
## against the declared metric and workload names.
repo-bench-smoke:
	cd bench && $(GO) test ./...

## server-smoke: end-to-end proof of the concurrent query service — start
## moaserve, drive a fixed list of MOA sources at it with curl, require every
## answer, the metric conservation laws, the lifecycle status codes, kill -9
## recovery and a clean SIGTERM drain (the CI server job).
server-smoke:
	./scripts/server_smoke.sh

## outofcore-smoke: end-to-end proof of the out-of-core storage path —
## ingest a fresh data directory past its first checkpoint, SIGKILL,
## restart with default flags, and require the restart to serve the mapped
## heaps (real residency metrics nonzero) with bit-identical answers (the
## CI out-of-core job).
outofcore-smoke:
	./scripts/outofcore_smoke.sh

# PROP_WRITES lists the property writes outside internal/bat/props.go: a
# .Props assignment, or a bat.New in internal/mil declaring props.
PROP_WRITES = { grep -rnE '\.Props\s*(\|=|&=|=[^=])' --include=*.go internal cmd | grep -v -e _test -e internal/bat/props.go; \
	grep -rn 'bat\.New(' --include=*.go internal/mil | grep -v _test | grep -v ', 0)'; }

# VARIANT_NAMES counts the names in mil.Variants.
VARIANT_NAMES = awk '/^var Variants = /{c=1} c{n+=gsub(/"[^"]*"/, "")} c && /^}/{c=0} END{print n}' internal/mil/ctx.go

## loc: the counts simplification and un-boxing PRs quote — non-test Go
## lines outside bench/ (on a gofmt-clean tree), per-kind fixed-width column
## switch arms in non-test code, the places internal/mil still boxes a
## bat.Value per row (a per-row Get, a map keyed by Value, a []Value buffer),
## the same boxing on the result path of internal/moa, internal/server and
## internal/engine (0: only Materialize's *SetVal boxes, one Get per leaf),
## the property writes outside internal/bat/props.go (PROP_WRITES; 0, which
## vet enforces), the Touch* calls in non-test internal/mil code and the
## files holding them (the touch sites), the flags moaserve declares, the fields of server.Config, the fields of
## mil.Options (the execution settings every query carries), the goroutine
## spawn sites in non-test internal/ code (1: the dispatcher), the parallel
## lines — the non-test lines of the dispatcher (internal/bat/morsel.go) and
## of the MIL morsel loop (internal/mil/parallel.go) — and the variant names
## in mil.Variants, with how many of them the census of the Figure-9 trace
## golden (internal/engine/testdata/fig9.trace) does not list.
loc:
	@gofmt -l . | sed 's/^/not gofmt-clean: /'
	@printf 'non-test go lines: '; find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@printf 'per-kind column arms: '; grep -rn 'case \*\(bat\.\)\?\(OID\|Int\|Flt\|Chr\|Bit\|Date\)Col' --include=*.go internal | grep -v _test | wc -l
	@printf 'boxed per-row sites: '; grep -rnE '\.(H|T)\.Get\(|map\[bat\.Value\]|make\(\[\]bat\.Value' --include=*.go internal/mil | grep -v _test | wc -l
	@printf 'result-path boxed sites: '; grep -rnE 'TailValue\(|HeadValue\(|Vector\.Get\(|map\[bat\.Value\]|\[\]bat\.Value' --include=*.go internal/moa internal/server internal/engine | grep -v _test | wc -l
	@printf 'property writes outside props.go: '; $(PROP_WRITES) | wc -l
	@printf 'touch sites: %d in %d files\n' \
		$$(grep -rn 'Touch[A-Za-z]*(' --include=*.go internal/mil | grep -v _test | wc -l) \
		$$(grep -rln 'Touch[A-Za-z]*(' --include=*.go internal/mil | grep -v _test | wc -l)
	@printf 'moaserve flags: '; grep -cE 'flag\.(String|Int|Int64|Float64|Bool|Duration|Uint64|StringVar)\(' cmd/moaserve/main.go
	@printf 'server.Config fields: '; awk '/^type Config struct/{c=1; next} c && /^}/{c=0} c && /^\t[A-Z]/{n++} END{print n}' internal/server/server.go
	@printf 'mil.Options fields: '; awk '/^type Options struct/{c=1; next} c && /^}/{c=0} c && /^\t[A-Z]/{n++} END{print n}' internal/mil/ctx.go
	@printf 'goroutine spawn sites: '; grep -rnE '^\s*go (func|[A-Za-z_.]+\()' --include=*.go internal | grep -v _test | wc -l
	@printf 'parallel lines: '; cat internal/bat/morsel.go internal/mil/parallel.go | wc -l
	@printf 'variant names: %d\n' $$($(VARIANT_NAMES))
	@printf 'unreached variants: %d\n' $$(( $$($(VARIANT_NAMES)) - $$(awk '/^== census/{c=1; next} /^==/{c=0} c{n++} END{print n}' internal/engine/testdata/fig9.trace) ))

## ci: everything the CI workflow runs, reproducible without pushing.
ci: verify chaos crash bench-smoke repo-bench-smoke server-smoke outofcore-smoke
