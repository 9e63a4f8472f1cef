# Developer entry points. `make check` is the pre-PR gate: formatting,
# vet, the contract linters, a full build, the test suite under the
# race detector, the invariants-tagged suite with the conservation
# auditor armed, and a short fuzz of the event queue. The sweep smoke target exercises the parallel harness
# end to end (randomloss plus the two scenarios with DCTCP rigs, fig19
# and ablation-faststart, determinism gate on) and leaves its artifacts
# in sweep-out/.

GO ?= go

# Package list shared by vet and lint, so the two gates always cover the
# same code (testdata fixtures are excluded by pattern expansion).
PKGS ?= ./...

.PHONY: check fmt vet lint build test race faults invariants fuzz flightrec cc hybrid bench-test escape escape-update alloc-budgets bench sweep-smoke sweep chaos clean

check: fmt vet lint build faults race invariants fuzz flightrec cc hybrid bench-test

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

# The pinned allocs/op budgets, the allocation contract's runtime half
# (non-race builds only; the race detector perturbs allocation counts).
# `race` and `test` compile these too — this target names a budget
# regression explicitly. Every package is searched, so a budget added
# in a new package is never left out.
alloc-budgets:
	$(GO) test -run '^TestAllocBudget' -count=1 ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault-injection subsystem on its own under the race detector.
# `race` covers it too; the separate target names a chaos regression
# explicitly in the failure output and gives a fast local gate.
faults:
	$(GO) test -race ./internal/faults/...

# Physics contract at runtime: the whole suite with the conservation
# auditor compiled in (internal/invariant, DESIGN.md §9) — which also
# runs the golden-digest matrix with the auditor armed inside the
# chaos scenarios — then a chaos smoke in the tagged build so the
# auditor watches a real fault-injection sweep end to end.
invariants:
	$(GO) test -tags invariants ./...
	$(GO) run -tags invariants ./cmd/dcqcn-sweep -scenario 'chaos-*' -seeds 1 \
		-parallel 0 -check-determinism -quiet -out chaos-out

# The event queue's fuzz target, run for 30 s beyond its seed corpus
# (which `test` and `race` replay): random pushes, pops, bounded pops and
# cancels, checked against a reference model.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzQueueOperations$$' -fuzztime 30s ./internal/eventq/

# Flight recorder gate: the package's unit tests (ring encoding, pause
# chains, diffing, exporters), the armed chaos smoke (every chaos
# scenario swept with recording on and the determinism gate checking
# that digests are unchanged), and the replay self-check — a same-seed
# diff must report no divergence (on a chaos scenario and on a hybrid
# one, so replay resolves every scenario family), a cross-seed diff on
# the DCQCN point must find one.
flightrec:
	$(GO) test ./internal/flightrec/...
	$(GO) run ./cmd/dcqcn-sweep -scenario 'chaos-*' -seeds 1 -parallel 0 \
		-check-determinism -record -quiet -out chaos-out
	$(GO) run ./cmd/dcqcn-replay -scenario chaos-pause-storm -diff-seed 0 \
		-expect same > /dev/null
	$(GO) run ./cmd/dcqcn-replay -scenario hybrid-validate -diff-seed 0 \
		-expect same > /dev/null
	$(GO) run ./cmd/dcqcn-replay -scenario chaos-pause-storm -point 1 \
		-diff-seed 1 -expect diverged > /dev/null

# Congestion-control framework gate (internal/cc): the registry, fuzz,
# controller and allocation-budget tests, the NIC dispatch tests and the
# TIMELY and QCN end-to-end NIC rigs (registry controllers, like every
# other NIC controller), then a two-algorithm head-to-head smoke sweep
# through the -cc CLI path with the determinism gate on
# (digest-identical reruns per algorithm; cc_compare.json lands in
# cc-out/). The golden digests — which pin DCQCN routed through the
# framework — run in `race`/`test`.
cc:
	$(GO) test -count=1 ./internal/cc/ ./internal/nic/ ./internal/timely/ \
		./internal/qcn/ ./cmd/dcqcn-sweep/
	$(GO) run ./cmd/dcqcn-sweep -cc dcqcn,timely -scenario incast -seeds 1 \
		-check-determinism -quiet -out cc-out

# Hybrid fluid/packet co-simulation gate (internal/hybrid, DESIGN §15):
# the fluid-law and substrate unit tests (passivity, coupling, alloc
# budget, overload saturation), the experiment-suite gates (the
# hybrid-off row of the golden-digest matrix, validation acceptance
# against pure-packet ground truth), and a validation sweep through the
# CLI path with the determinism gate on.
hybrid:
	$(GO) test -count=1 ./internal/fluid/ ./internal/hybrid/
	$(GO) test -count=1 -run 'TestGoldenDigests/hybrid-off|TestHybrid|TestRegisterHybridScenarios' \
		./internal/experiments/
	$(GO) run ./cmd/dcqcn-sweep -scenario hybrid-validate -seeds 1 \
		-check-determinism -quiet -out hybrid-out

# The benchmark (cmd/dcqcn-bench) is a Go module of its own, so the
# root `go test ./...` never enters it. Vet and test it here: an API
# change that breaks the benchmark fails `make check`.
bench-test:
	$(GO) -C cmd/dcqcn-bench vet ./...
	$(GO) -C cmd/dcqcn-bench test ./...

bench:
	$(GO) test -run=NONE -bench=BenchmarkSweep -benchtime=1x .

# Quick end-to-end exercise of the harness: 4 workers, determinism gate
# on. fig19 and ablation-faststart are here for their DCTCP points: the
# golden digests pin first points only, so this gate is the only
# determinism check on the DCTCP rigs. Artifacts land in sweep-out/.
sweep-smoke:
	$(GO) run ./cmd/dcqcn-sweep -scenario randomloss,fig19,ablation-faststart \
		-parallel 4 -check-determinism -quiet -out sweep-out

# The full evaluation sweep (every registered scenario).
sweep:
	$(GO) run ./cmd/dcqcn-sweep -parallel 0 -check-determinism -out sweep-out

# Chaos smoke: one seed per fault-injection scenario with the runtime
# determinism gate on — proves the injector's aux-stream draws stay off
# the primary RNG. Artifacts land in chaos-out/.
chaos:
	$(GO) run ./cmd/dcqcn-sweep -scenario 'chaos-*' -seeds 1 -parallel 0 \
		-check-determinism -quiet -out chaos-out

clean:
	rm -rf sweep-out chaos-out cc-out hybrid-out
