GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet lint lint-perf fix fuzz bench bench-scaling

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Determinism-under-concurrency suite: the whole tree under the race
# detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# emlint enforces the repo's concurrency, determinism, and observability
# invariants (see DESIGN.md §7). Exit 1 with file:line diagnostics on any
# violation; suppress deliberate exceptions with //emlint:allow.
lint:
	$(GO) run ./cmd/emlint ./internal/... ./cmd/...

# Performance-contract verification (DESIGN.md §12): escapecheck compiles
# each //emlint:zeroalloc / //emlint:hotpath package with -gcflags=-m=2
# and fails on any escape or inlining regression not grandfathered by
# lint/escape_baseline.json; allocguard requires every zeroalloc function
# to carry a testing.AllocsPerRun guard. After a deliberate change (or a
# Go toolchain bump), refresh the baseline with:
#   $(GO) run ./cmd/emlint -update-baseline ./internal/... ./cmd/...
lint-perf:
	$(GO) run ./cmd/emlint -checks=escapecheck,allocguard \
		-escape-report=escape-report.json ./internal/... ./cmd/...

# Applies the machine-applicable suggested fixes emlint diagnostics carry
# (e.g. hotalloc prealloc rewrites) and gofmts the touched files. Safe to
# run repeatedly: the engine is idempotent.
fix:
	$(GO) run ./cmd/emlint -fix ./internal/... ./cmd/...

# Short fuzz smoke over the text-format parsers. Override FUZZTIME for a
# longer soak, e.g. `make fuzz FUZZTIME=5m`.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseRule -fuzztime=$(FUZZTIME) ./internal/rules
	$(GO) test -run=^$$ -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/table

# Regenerates BENCH_parallel.json: the workers x n scaling sweep over the
# similarity join, forest training and MatchOne through the serve Pool.
# Warns (cores_ok=false) on a 1-core box; add -requirecores to refuse
# instead.
bench:
	$(GO) run ./cmd/benchem -exp parallel

# Smoke-size scaling sweep: same workloads and gates as `bench`, sized for
# CI. Fails on any output divergence from Workers=1, and on a runner with
# >= 4 cores also fails when the workers=4 speedup of simjoin_jaccard or
# forest_fit_32trees drops below MINSPEEDUP, or that of serve_match below
# SERVEMINSPEEDUP (both slightly under the full bench's 1.5x bar to absorb
# shared-vCPU noise).
MINSPEEDUP ?= 1.3
SERVEMINSPEEDUP ?= 1.3
bench-scaling:
	$(GO) run ./cmd/benchem -exp parallel -scalen 2000,20000 -scaleworkers 1,2,4 \
		-minspeedup $(MINSPEEDUP) -serveminspeedup $(SERVEMINSPEEDUP) \
		-benchout /tmp/BENCH_parallel_smoke.json
