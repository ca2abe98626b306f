GO ?= go

.PHONY: all build vet test race check fmt fuzz cover bench bench-smoke profile simcheck chaos examples
FUZZTIME ?= 10s

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Short bounded fuzz pass over the FTL mapping, ECC classification,
# workload-codec, binary and JSON trace readers, checkpoint torn-write and power-cut
# crash-recovery harnesses, and worn drives running out of free superblocks;
# FUZZTIME=1m make fuzz for a longer soak.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzFTLMapping -fuzztime=$(FUZZTIME) ./internal/ftl
	$(GO) test -run=^$$ -fuzz=FuzzReadClassify -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run=^$$ -fuzz=FuzzWorkloadRoundTrip -fuzztime=$(FUZZTIME) ./internal/check
	$(GO) test -run=^$$ -fuzz=FuzzReadBlockTrace -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzReadPosixTrace -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzDecodeBlockJSON -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzDecodePosixJSON -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzCkptTornWrite -fuzztime=$(FUZZTIME) ./internal/ckpt
	$(GO) test -run=^$$ -fuzz=FuzzCrashRecovery -fuzztime=$(FUZZTIME) ./internal/check
	$(GO) test -run=^$$ -fuzz=FuzzWornWriteGC -fuzztime=$(FUZZTIME) ./internal/experiment

# One pass over every figure/table benchmark, printed. -benchtime=1x because
# each whole-figure benchmark already runs the full evaluation matrix once.
# Host cost is measured by the repository benchmark (bash bench/run.sh, see
# bench/README.md); allocation growth is caught by go test
# (TestCellAllocCeiling and the AllocsPerRun pins).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x .

# Quick subset of the figure benchmarks, plus one durable write-GC cell for
# the write path, for CI smoke runs: proves they still run without
# replaying every evaluation matrix.
BENCH_SMOKE = Fig7aBandwidth|Fig10Breakdown|SimulatorPageThroughput|TelemetrySampling|DurableWriteGC
bench-smoke:
	$(GO) test -run='^$$' -benchmem -benchtime=1x \
		-bench='$(BENCH_SMOKE)' .

# CPU + allocation profile of a representative attributed replay; inspect
# with `go tool pprof profile/cpu.pprof` (or mem.pprof).
profile:
	@mkdir -p profile
	$(GO) run ./cmd/tracegen -matrix 96 -panel 8 -fs EXT4 -block profile/profile.trace
	$(GO) run ./cmd/replay -trace profile/profile.trace -config CNL-EXT4 -cell TLC \
		-attrib -cpuprofile profile/cpu.pprof -memprofile profile/mem.pprof
	@echo "wrote profile/cpu.pprof and profile/mem.pprof"

# Cross-layer conformance sweep: integrity oracle + analytical envelopes +
# metamorphic relations over the acceptance configurations.
simcheck:
	$(GO) run ./cmd/simcheck -episodes 25 -configs CNL-UFS,CNL-EXT4,ION-GPFS -cells MLC,TLC

# Degraded-network chaos smoke: race-checked scenario matrix over the
# netfault transfer engine, the degraded preload/checkpoint path and the
# conformance envelopes, then a full replay staged through a flaky fabric
# with the HTML experiment report as the artifact.
chaos:
	$(GO) test -race -count=1 ./internal/netfault ./internal/cluster ./internal/check
	$(GO) run ./cmd/simcheck -episodes 3 -configs CNL-UFS -cells MLC -net-profile flaky
	$(GO) run ./cmd/tracegen -matrix 64 -panel 8 -apps 2 -fs EXT4 -block chaos.trace
	$(GO) run ./cmd/replay -trace chaos.trace -config CNL-EXT4 -cell TLC \
		-net-profile flaky -report-out chaos_report.html
	@test -s chaos_report.html && echo "wrote chaos_report.html"

# Run every example end to end. Each one checks its own result and exits
# non-zero through log.Fatal on a mismatch, so building them is not enough.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d || exit 1; \
	done

cover:
	$(GO) test -cover ./... | tee coverage.txt

check: fmt vet build test
