GO ?= go

.PHONY: all build vet test race check fmt fuzz cover bench bench-smoke bench-gate benchdiff profile simcheck chaos
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
# crash-recovery harnesses; FUZZTIME=1m make fuzz for a longer soak.
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

# One pass over every figure/table benchmark, archived as JSON for diffing
# between commits and appended to the continuous-bench history the HTML
# report's trajectory sparklines read. -benchtime=1x because each whole-figure
# benchmark already runs the full evaluation matrix once.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x . \
		| $(GO) run ./cmd/benchjson -history BENCH_history.jsonl > BENCH_results.json
	@echo "wrote BENCH_results.json (history in BENCH_history.jsonl)"

# Quick subset of the figure benchmarks for CI smoke runs: enough to catch a
# perf or allocation regression without replaying every evaluation matrix.
BENCH_SMOKE = Fig7aBandwidth|Fig10Breakdown|SimulatorPageThroughput|TelemetrySampling
bench-smoke:
	$(GO) test -run='^$$' -benchmem -benchtime=1x \
		-bench='$(BENCH_SMOKE)' . \
		| $(GO) run ./cmd/benchjson > bench_smoke.json
	@echo "wrote bench_smoke.json"

# Continuous-bench gate: re-run the smoke benchmarks -count=3 (benchjson keeps
# the min, so scheduler noise only helps), then fail if allocation counts grew
# beyond 5% over the checked-in baseline. The time gate is disabled (-1):
# wall-clock numbers are not comparable across machines, allocation counts
# are deterministic.
bench-gate:
	$(GO) test -run='^$$' -benchmem -benchtime=1x -count=3 \
		-bench='$(BENCH_SMOKE)' . \
		| $(GO) run ./cmd/benchjson -history BENCH_history.jsonl > bench_smoke.json
	$(GO) run ./cmd/benchdiff -time-threshold=-1 -alloc-threshold=0.05 \
		BENCH_results.json bench_smoke.json

# Compare two archived bench runs by hand: make benchdiff OLD=a.json NEW=b.json
OLD ?= BENCH_results.json
NEW ?= bench_smoke.json
benchdiff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

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

cover:
	$(GO) test -cover ./... | tee coverage.txt

check: fmt vet build test
