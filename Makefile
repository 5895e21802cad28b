# Developer entry points; CI and the verify flow run `make check`.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test race vet bench prof timeline chaos gate health crash crash-full check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-run the packages with lock-free hot paths and shared counters,
# including the parallel substrate (emission workers, shard aggregators),
# the SLO health monitor, and the stage-boundary profile capturer.
race:
	$(GO) test -race ./internal/obs/... ./internal/runs/... ./internal/probe/... ./internal/dnssim/... ./internal/pdns/... ./internal/workload/... ./internal/fault/... ./internal/checkpoint/... ./internal/health/... ./internal/prof/...

# perfbench/ is its own module, so the root `./...` neither builds nor vets
# it; vetting it here catches an API change that would break the benchmark.
# Any file gofmt would rewrite (both modules) fails the target.
vet:
	@unformatted="$$($(GOFMT) -l .)"; \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# Tier-1 suite under the heavy fault-injection profile with the race detector:
# every pipeline test runs against a seeded schedule of DNS failures, resets,
# flapping/truncating endpoints, latency spikes, and feed corruption. Loosened
# chaos-aware gates apply automatically (the tests read SCF_CHAOS).
chaos:
	SCF_CHAOS=heavy $(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Continuous profiling pass: run the golden configuration with -profile (the
# run ID and every deterministic fingerprint are unchanged by profiling, so
# this shares the gate's .runs slot), then render the CPU hotspot + stage
# attribution tables into PROF_HOTSPOTS.md. The rendering is deterministic
# for a fixed profile; the profile contents are machine-varying by design.
prof:
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2 \
		-profile -run-dir .runs > /dev/null
	$(GO) run ./cmd/scfruns prof show -dir .runs -o PROF_HOTSPOTS.md r-3ed4ac535b0d
	@cat PROF_HOTSPOTS.md

# Telemetry timeline pass: run the golden configuration with the windowed
# recorder on (the timeline lands on the archive's machine-varying side, so
# the run ID and every deterministic fingerprint are unchanged and this
# shares the gate's .runs slot), then render the deterministic timeline
# table — window deltas, anomaly annotations, health breaches — into
# TIMELINE.md. A clean golden run annotates zero anomalies.
timeline:
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2 \
		-timeline-interval 250ms -run-dir .runs > /dev/null
	$(GO) run ./cmd/scfruns timeline -dir .runs -o TIMELINE.md r-3ed4ac535b0d
	@cat TIMELINE.md

# Regression gate: archive a fresh run of the golden configuration and diff
# it against the committed baseline (internal/runs/testdata/golden). The
# deterministic dimensions — artifact fingerprints, calibration bands,
# degradation drift — gate at full strictness; the wall-clock tolerance is
# widened to 4x so slower machines don't fail on honest hardware differences.
gate: test
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2 \
		-run-dir .runs > /dev/null
	$(GO) run ./cmd/scfruns gate -dir .runs -baseline internal/runs/testdata/golden -wall-tol 3 -quiet

# SLO health check: run the golden configuration with the streaming health
# monitor in strict mode. Exits non-zero if any rule fires (per-provider
# probe error rate or p99, breaker opens, feed drop/quarantine rates) — a
# clean seeded run is expected to stay inside every bound.
health:
	$(GO) run ./cmd/scfpipe -seed 1 -scale 0.01 -workers 4 -chaos none -skip-c2 \
		-no-archive -health-strict > /dev/null

# Crash-recovery matrix: kill the pipeline at every stage boundary and at
# mid-emission rows in a real subprocess, resume from the checkpoint, and
# require the resumed archive's deterministic half to be byte-identical to an
# uninterrupted run — plus the checkpoint codec and resume-path unit tests,
# all under the race detector. `crash-full` widens the matrix to the full
# crashpoint × workers cross product.
crash:
	$(GO) test -race -count=1 -run 'TestCrashResume|TestRunIDIgnoresCheckpointConfig' ./internal/core/ \
		&& $(GO) test -race -count=1 ./internal/checkpoint/... \
		&& $(GO) test -race -count=1 -run 'TestAggregateParallelCkpt' ./internal/workload/

crash-full:
	SCF_CRASH_FULL=1 $(GO) test -race -count=1 -run 'TestCrashResume' -timeout 30m ./internal/core/

# Tier-1 suite — what CI (.github/workflows/ci.yml) runs on every push/PR.
# Performance is measured by `bash perfbench/run.sh`, not by check.
# crash-full stays out for wall-time; the reduced crash matrix is in.
check: build vet test race gate crash
