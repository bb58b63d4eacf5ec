# Standard flows for the reco repository. Everything is plain `go` under
# the hood; these targets just name the common invocations.

GO ?= go

.PHONY: all build test test-short race cover bench bench-short bench-json verify results examples fmt fmt-check vet lint check clean loadtest-short loadtest fuzz-short perfbench-test

all: build test

# The full verification gate: everything CI should hold a change to.
check: build test race vet lint perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# perfbench is its own Go module, so ./... above never compiles it; this
# keeps the benchmark building and its short tests passing against the
# api/algo types it imports (~7 s).
perfbench-test:
	cd perfbench && $(GO) test -short ./...

# Per-package statement coverage, with a total line at the bottom.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@rm -f coverage.out

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: a cheap smoke test that the bench
# harnesses still compile and run (used by CI; not for timing).
bench-short:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# Timing records for the perf trajectory (name, ns/op, allocs/op, workers).
bench-json:
	$(GO) run ./cmd/recobench -bench -exp all,kcore,frontier,micro > BENCH_experiments.json

# Short closed-loop load test against an in-process recod (~2 s of driving):
# runs recoload, then recobench -compare against the committed baseline with
# a huge threshold — the compare never gates on timing noise, it only proves
# the report still parses in the recobench schema (shape smoke test).
# The second leg is a seeded overload run through the async job path — one
# worker, a two-deep queue, tight deadlines, weighted requests — proving
# admission control sheds and rejects structurally (429s, shed jobs) while
# the harness still exits 0: only transport errors fail a load run.
loadtest-short:
	$(GO) run ./cmd/recoload -inprocess -duration 2s -concurrency 4 \
		-n 8 -coflows 4 -reuse 0.9 -mix single=0.8,multi=0.2 \
		-label warm -bench /tmp/recoload-short.json > /dev/null
	$(GO) run ./cmd/recobench -compare -regress 1e9 BENCH_recoload.json /tmp/recoload-short.json
	@rm -f /tmp/recoload-short.json
	$(GO) run ./cmd/recoload -inprocess -no-cache -duration 2s -concurrency 8 \
		-seed 7 -n 24 -mix job=1 -deadline 20ms -weighted \
		-job-workers 1 -job-queue 2 > /dev/null

# Ten seconds of coverage-guided fuzzing over the schedule/job decoders
# (malformed JSON, hostile SLA fields). CI-friendly: fails only on a crash
# or a broken response contract, never on timing.
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzScheduleRequest -fuzztime=10s ./internal/api

# Regenerate the committed load-test baseline (warm cache vs cold, ~10 s).
# helios is the compute-heavy scheduler, so the warm/cold p50 ratio shows
# the plan cache's effect rather than JSON transport overhead.
loadtest:
	$(GO) run ./cmd/recoload -inprocess -duration 4s -concurrency 4 \
		-n 32 -coflows 8 -alg helios -reuse 0.9 -label warm \
		-bench BENCH_recoload.json > /dev/null
	$(GO) run ./cmd/recoload -inprocess -duration 4s -concurrency 4 \
		-n 32 -coflows 8 -alg helios -reuse 0 -no-cache -label cold \
		-bench BENCH_recoload.json > /dev/null
	@cat BENCH_recoload.json

# Re-check every qualitative claim of the paper against a fresh run (~30 s).
verify:
	$(GO) run ./cmd/recobench -verify

# Regenerate the committed experiment results (~100 s).
results:
	$(GO) run ./cmd/recobench -exp all -parallel 2 -outdir results > results/all.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/singlecoflow
	$(GO) run ./examples/multicoflow
	$(GO) run ./examples/notallstop
	$(GO) run ./examples/onlinearrivals
	$(GO) run ./examples/scheduleservice

fmt:
	gofmt -w .

# Fail (listing the offenders) if any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck when installed; a visible skip (not a failure) when absent, so
# `make check` works on machines without it while CI with the tool installed
# still gates on its findings.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

clean:
	$(GO) clean ./...
