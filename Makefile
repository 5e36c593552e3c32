GO ?= go

.PHONY: all build test race bench benchmark benchmark-compare crash fmt vet golden serve server-smoke size

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The testing.B benchmarks: the operator ablations, the external sort, and
# the paper's Section 9 experiments on the simulated-disk model.
bench:
	$(GO) test -run XXX -bench . -benchtime=10x . ./internal/exec ./internal/extsort ./internal/bench

# The repository benchmark (BENCHMARK.json, benchmark/README.md): all four
# workloads at seed 1, end-to-end metrics, saved for benchmark-compare.
# Everything it writes stays under benchmark/out/ (git-ignored).
benchmark:
	mkdir -p benchmark/out
	$(GO) run ./benchmark --workload all --seed 1 > benchmark/out/run.json

# Judge one saved benchmark output against another with the bounds of
# BENCHMARK.json: make benchmark-compare A=parent.json B=change.json
# (B defaults to the output of `make benchmark`).
B ?= benchmark/out/run.json
benchmark-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# The crash-recovery fault-injection sweep (CRASH_SEED varies the torn
# prefix length and flipped bit position; CI runs seeds 1-4).
crash:
	$(GO) test -run TestCrashRecovery -count=1 -v ./internal/workload

# Regenerate the golden EXPLAIN plans and EXPLAIN ANALYZE work trees
# (internal/core/testdata/golden: *.golden and *.work.golden)
# after an intentional planner change; the diff is the review artifact.
golden:
	$(GO) test ./internal/core -run 'TestGolden(Plans|Work)' -update-golden

# Run the network server on the default port with a throwaway database.
serve:
	$(GO) run ./cmd/fuzzydbd

# CI's live-server smoke: start fuzzydbd, drive it with 200 concurrent
# fuzzyload connections (answers verified), SIGTERM, require a clean
# checkpointed shutdown.
server-smoke:
	$(GO) build -o /tmp/fuzzydbd ./cmd/fuzzydbd
	$(GO) build -o /tmp/fuzzyload ./cmd/fuzzyload
	/tmp/fuzzydbd -addr 127.0.0.1:4540 & \
	pid=$$!; sleep 1; \
	/tmp/fuzzyload -addr 127.0.0.1:4540 -connections 200 -duration 5s; rc=$$?; \
	kill -TERM $$pid; wait $$pid; \
	exit $$rc

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Non-test Go lines outside benchmark/ (ROADMAP's "Current size"): per
# package directory, then the total.
size:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | \
	  awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); sum[d] += $$1; all += $$1 } \
	    END { for (d in sum) printf "%7d %s\n", sum[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", all }'
