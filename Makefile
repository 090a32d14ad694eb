GO ?= go

.PHONY: build test bench race vet fmt check fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the root-package micro-benchmarks (map-path vs compiled
# kernels, repeated TopK), then the four accuracy sweeps only crpbench
# measures: BENCH_faults.json (probe loss x CDN staleness), BENCH_scale.json
# (million-client prefix aggregation on/off), BENCH_fusion.json (fused vs
# single-CDN) and BENCH_drift.json (detector precision/recall). Request-path
# and gossip-path timing is `go run ./benchmark` (BENCHMARK.json).
bench:
	$(GO) test -bench . -benchmem -run ^$$ .
	$(GO) run ./cmd/crpbench -exp faults -out BENCH_faults.json
	$(GO) run ./cmd/crpbench -exp scale -out BENCH_scale.json
	$(GO) run ./cmd/crpbench -exp fusion -out BENCH_fusion.json
	$(GO) run ./cmd/crpbench -exp drift -out BENCH_drift.json

# fuzz is a 10 s smoke over each of the five fuzz targets: the three wire
# decoders (crpd JSON, crpd binary, gossip frame), crpd's state-file reader
# and the scenario plan decoder. CI checks that this list names every Fuzz
# function in the tree.
fuzz:
	$(GO) test -fuzz FuzzDecodeRequest -fuzztime 10s ./internal/crpdaemon/
	$(GO) test -fuzz FuzzDecodeBinaryRequest -fuzztime 10s ./internal/crpdaemon/
	$(GO) test -fuzz FuzzDecodeBinaryPeerMsg -fuzztime 10s ./internal/peering/
	$(GO) test -fuzz FuzzReadState -fuzztime 10s ./internal/peering/
	$(GO) test -fuzz FuzzDecodeScenario -fuzztime 10s ./internal/scenario/

vet:
	$(GO) vet ./...

# fmt fails when any file diverges from gofmt, printing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# check is the pre-merge gate: formatting, static analysis, then the full
# suite under the race detector (the crp package runs real goroutine fan-out
# in its query path only: candidate scoring; clustering runs on the caller's
# goroutine).
check: fmt vet race
