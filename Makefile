GO ?= go

.PHONY: check fmt vet analyzers build test-race bench-smoke smoke fuzz-smoke test bench

# check is the pre-merge gate: gofmt, static analysis (go vet plus the
# project analyzers: noalloc hot-path enforcement, mutex-copy and
# lock-ordering, atomicfield mixed atomic/plain access detection), a full
# build, the race detector over the concurrency-sensitive packages
# (recycling, scheduler, admission control, HTTP drain) plus a ten-round
# race stress of the executor's shared timeout/abandon path, a short
# churn-benchmark smoke run (allocs/op regressions show up immediately in
# its -benchmem output), the experiment smokes (each TestXSmoke's doc
# comment states its gates), and fuzz smokes: a 30s differential fuzz of
# the check-elision pipeline (every bounds strategy with elision on/off, in
# both metering modes, must produce identical results, traps, and gas) and
# a hostile-input fuzz of the sledge.output handoff host call (arbitrary
# ptr/len must trap or stay in bounds).
check: fmt vet analyzers build test-race bench-smoke smoke fuzz-smoke

fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

analyzers:
	$(GO) run ./tools/analyzers ./internal/... ./cmd/... ./tools/... .

build:
	$(GO) build ./...

test-race:
	$(GO) test -race ./internal/sandbox/... ./internal/sched/... ./internal/core/... \
		./internal/admission/... ./internal/httpd/... ./internal/cluster/... ./internal/stats/...
	$(GO) test -race -run 'TestPool' ./internal/engine/
	$(GO) test -race -count=10 -run 'Timeout|Abandon|Pipeline' ./internal/core/

bench-smoke:
	$(GO) test -run=NONE -bench=Churn -benchtime=100x -benchmem .

# smoke runs every experiment's quick-size gates; the cluster smoke runs
# under the race detector.
smoke:
	$(GO) test -count=1 -run '^Test(Overload|SchedBench|Tierup|Meter|Warm|Chain)Smoke$$' ./internal/experiments/
	$(GO) test -race -count=1 -run '^TestContinuumSmoke$$' ./internal/experiments/

# bench-<id> regenerates BENCH_<id>.json at full size, e.g. make bench-sched.
bench-%:
	$(GO) run ./cmd/sledge-bench -run $* -snapshot BENCH_$*.json

fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDifferentialElision -fuzztime=30s ./internal/engine/
	$(GO) test -run=NONE -fuzz=FuzzOutputHostCall -fuzztime=15s ./internal/abi/

test:
	$(GO) test ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem .
