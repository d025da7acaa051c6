# Same commands CI runs — `make ci` is exactly the PR gate.
GO ?= go

.PHONY: all build vet lint test short race bench bench-alloc ledger-smoke cover nightly ci clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific invariants (see internal/lint/doc.go). go run builds
# pgllint from the current source, so an edit anywhere is picked up.
lint:
	$(GO) run ./cmd/pgllint ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

# One iteration of every benchmark: checks they still run, not their numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Hot-path allocation budgets (bench/alloc_budgets.txt): run the
# BenchmarkAlloc* suite with -benchmem at a fixed iteration count
# (allocs/op is deterministic there; ns/op is not gated) and fail if any
# benchmark exceeds its checked-in allocs/op or B/op budget.
bench-alloc:
	$(GO) test -run '^$$' -bench 'BenchmarkAlloc' -benchmem -benchtime 10000x \
		./server/ ./internal/shard/ ./internal/store/logstore/ | tee bench-alloc.txt
	$(GO) run ./cmd/allocgate bench-alloc.txt

# The benchmark's own gate. bench/ledger is a module of its own, so
# `go test ./...` here never reaches it: run all four workloads at 1/20
# size against a real pglserve (oracle, crash, recover, readback), then the
# ledger's unit tests. A structure or engine change that breaks the oracle
# or the crash readback fails here, not at the next benchmark run.
ledger-smoke:
	bash bench/ledger/run.sh smoke
	cd bench/ledger && $(GO) test ./...

cover:
	$(GO) test -short -covermode atomic -coverprofile coverage.out ./...
	$(GO) tool cover -func coverage.out | tail -n 1

# What the nightly workflow runs: everything un-shortened, then race.
nightly:
	$(GO) test -timeout 90m ./...
	$(GO) test -race -timeout 90m ./...

ci: build vet lint test race

clean:
	rm -f coverage.out
	rm -rf bin
