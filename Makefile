# Developer entry points. `make check` is the pre-PR gate and the whole
# of CI: formatting, vet, the contract linters, a full build, the test
# suite under the race detector (the golden matrix audits every
# scenario with the conservation auditor), the allocation budgets and
# retained-memory bounds (the plain-build run of every race-excluded
# test), a short fuzz of the event queue, the CLI smoke table (whose
# chaos lines are the audited chaos sweep) and the benchmark module's
# tests. Each gate runs once.

GO ?= go

# Package list shared by vet and lint, so the two gates always cover the
# same code (testdata fixtures are excluded by pattern expansion).
PKGS ?= ./...

.PHONY: check fmt vet lint build test race fuzz smoke bench-test escape escape-update alloc-budgets bench sweep clean

check: fmt vet lint build race alloc-budgets fuzz smoke bench-test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet $(PKGS)

# Contract static analysis (internal/lint), 10 analyzers. Determinism
# family: walltime, globalrand, maporder, floateq, simtime. Physics
# family: noconc, eventpast, acctfield. Hot-path family: hotchain (no
# per-event hook chaining in //hot:path functions). Interprocedural
# family: hookpassive. All of them share one call-graph summary
# (internal/lint/callgraph). A finding is waived in the source, on its
# line or the line above, with `//lint:allow <analyzer> <reason>`; a
# waiver without a reason, for an unknown analyzer, or silencing
# nothing is itself a finding.
# The second step is the allocation contract's compiler half: it diffs
# the compiler's escape decisions inside every //hot:path function of
# the library packages against escape.golden.
lint:
	$(GO) run ./cmd/dcqcn-lint $(PKGS)
	$(GO) run ./cmd/dcqcn-lint -escape

# The escape audit on its own: rebuild the library packages with
# -gcflags=-m and diff the heap-escape decisions inside //hot:path
# functions against escape.golden.
escape:
	$(GO) run ./cmd/dcqcn-lint -escape

# Regenerate escape.golden after an intentional allocation change.
# Review the diff — every added line is a new heap allocation on a hot
# path, accepted by committing it; say why in a comment at the site.
escape-update:
	$(GO) run ./cmd/dcqcn-lint -escape -update

# The pinned allocs/op budgets, the allocation contract's runtime half,
# and the retained-memory bounds. The race detector perturbs allocation
# counts and heap sizes, so these tests sit in `!race` files that `race`
# never builds, and this gate is the one plain-build run of every
# race-excluded test: the `TestAllocBudget*` budgets, the escape parity
# table's `TestParityAllocs` and the `TestRetained*` live-heap bounds
# (the flight recorder's ring, a drained egress queue). A test added to
# a `!race` file must match this pattern. Every package is searched, so
# a budget added in a new package is never left out.
alloc-budgets:
	$(GO) test -run '^(TestAllocBudget|TestParityAllocs$$|TestRetained)' -count=1 ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector: every package's unit tests
# (faults, flightrec, cc, hybrid, ...), the golden-digest matrix — whose
# plain row runs every scenario with the conservation auditor
# (internal/invariant, DESIGN.md §9) attached — and the CLI contract
# tests.
race:
	$(GO) test -race ./...

# The event queue's fuzz target, run for 30 s beyond its seed corpus
# (which `race` replays): random pushes, pops, bounded pops and
# cancels, checked against a reference model.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOperations$$' -fuzztime 30s ./internal/eventq/

# The CLI smoke table: one line per command, artifacts under smoke-out/.
# Every sweep runs with the determinism gate on.
#   sweep         the harness end to end at 4 workers; fig19 and
#                 ablation-faststart carry the two DCTCP points, which
#                 no golden digest pins
#   chaos         one seed per fault-injection scenario: the injector's
#                 aux-stream draws stay off the primary RNG, and every
#                 chaos run carries the conservation auditor, so this
#                 is the audited chaos sweep
#   chaos-record  the same with the flight recorder armed on every run
#   cc            a two-algorithm head-to-head through the -cc path
#                 (cc_compare.json)
#   hybrid        the fluid-vs-packet validation grid
#   replay-*      a same-seed diff reports no divergence (on a chaos
#                 scenario and on a hybrid one, so replay resolves every
#                 scenario family); a cross-seed diff finds one
smoke:
	@mkdir -p smoke-out
	$(GO) run ./cmd/dcqcn-sweep -scenario randomloss,fig19,ablation-faststart -parallel 4 -check-determinism -quiet -out smoke-out/sweep
	$(GO) run ./cmd/dcqcn-sweep -scenario 'chaos-*' -seeds 1 -parallel 0 -check-determinism -quiet -out smoke-out/chaos
	$(GO) run ./cmd/dcqcn-sweep -scenario 'chaos-*' -seeds 1 -parallel 0 -check-determinism -record -quiet -out smoke-out/chaos-record
	$(GO) run ./cmd/dcqcn-sweep -cc dcqcn,timely -scenario incast -seeds 1 -check-determinism -quiet -out smoke-out/cc
	$(GO) run ./cmd/dcqcn-sweep -scenario hybrid-validate -seeds 1 -check-determinism -quiet -out smoke-out/hybrid
	$(GO) run ./cmd/dcqcn-replay -scenario chaos-pause-storm -diff-seed 0 -expect same > smoke-out/replay-chaos-same.txt
	$(GO) run ./cmd/dcqcn-replay -scenario hybrid-validate -diff-seed 0 -expect same > smoke-out/replay-hybrid-same.txt
	$(GO) run ./cmd/dcqcn-replay -scenario chaos-pause-storm -point 1 -diff-seed 1 -expect diverged > smoke-out/replay-chaos-diverged.txt

# The benchmark (cmd/dcqcn-bench) is a Go module of its own, so the
# root `go test ./...` never enters it. Vet and test it here: an API
# change that breaks the benchmark fails `make check`.
bench-test:
	$(GO) -C cmd/dcqcn-bench vet ./...
	$(GO) -C cmd/dcqcn-bench test ./...

# The sweep harness's orchestration speedup: the same grid at
# -parallel 1 and -parallel 4.
bench:
	$(GO) test -run=NONE -bench=BenchmarkSweep -benchtime=1x .

# The full evaluation sweep (every registered scenario).
sweep:
	$(GO) run ./cmd/dcqcn-sweep -parallel 0 -check-determinism -out sweep-out

clean:
	rm -rf sweep-out smoke-out
