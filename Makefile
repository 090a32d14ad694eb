GO ?= go

.PHONY: build test bench race vet fmt check test-faults test-scenario test-drift

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the root-package micro-benchmarks, then the daemon stress bench
# (BENCH_crpd.json: cheap-op latency with and without concurrent SMF
# clustering load), then the store churn bench at full scale
# (BENCH_churn.json: query latency under continuous ingestion, sharded store
# vs the single-snapshot baseline, 50k nodes), then the fault sweep
# (BENCH_faults.json: closest-node accuracy across probe-loss rates x CDN
# staleness windows), then the gossip sweep (BENCH_gossip.json: multi-daemon
# convergence rounds and replication fidelity across rumor fanout x
# gossip-link packet loss), then the aggregation scale bench
# (BENCH_scale.json: million-client ingest with prefix aggregation on/off x
# prefix granularity — state reduction, closest-node rank delta vs the
# per-client baseline, query p99 under concurrent ingest), then the
# multi-CDN fusion bench (BENCH_fusion.json: fused vs single-CDN
# closest-node rank and SMF quality across replica-density x
# coverage-sparsity cells, with the 1-namespace bit-identity gate), then
# the drift detector bench (BENCH_drift.json: CDN-change detection
# precision/recall/latency vs the fault plane's compiled truth schedule
# across detector sensitivity x fault scenario, self-gating). All reports
# embed provenance metadata (seed, host width, go version, scale knobs).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .
	$(GO) run ./cmd/crpbench -exp crpd -quick -out BENCH_crpd.json
	$(GO) run ./cmd/crpbench -exp churn -out BENCH_churn.json
	$(GO) run ./cmd/crpbench -exp faults -out BENCH_faults.json
	$(GO) run ./cmd/crpbench -exp gossip -out BENCH_gossip.json
	$(GO) run ./cmd/crpbench -exp scale -out BENCH_scale.json
	$(GO) run ./cmd/crpbench -exp fusion -out BENCH_fusion.json
	$(GO) run ./cmd/crpbench -exp drift -out BENCH_drift.json

# test-faults runs the fault-injection degradation suite (clean-vs-faulted
# accuracy envelopes per fault class, activation-counter assertions,
# byte-identical reruns) under the race detector, the packet-level fault
# tests on the dnsserver and crpd UDP paths, then a short fuzz smoke over
# the four wire decoders (DNS, the JSON and binary decoders on the crpd
# plane, and the gossip frame decoder) and the two config decoders.
test-faults:
	$(GO) test -race -run 'Degradation|Faults|WrapPacketConn|Scenario|Storm|Probe|LDNS|MapEpoch|Activation|Clock|Gossip' ./internal/faults/ ./internal/experiment/
	$(GO) test -race -run 'Retransmit|SurvivesDuplicated|UnderDup|UnderTotal|Decode|Hostile|Boundary' ./internal/dnsserver/ ./internal/crpdaemon/
	$(GO) test -fuzz FuzzUnpack -fuzztime 10s ./internal/dnswire/
	$(GO) test -fuzz FuzzDecodeRequest -fuzztime 10s ./internal/crpdaemon/
	$(GO) test -fuzz FuzzDecodeBinaryRequest -fuzztime 10s ./internal/crpdaemon/
	$(GO) test -fuzz FuzzDecodeBinaryPeerMsg -fuzztime 10s ./internal/peering/
	$(GO) test -fuzz FuzzDecodeScenario -fuzztime 10s ./internal/scenario/
	$(GO) test -fuzz FuzzDecodeDriftConfig -fuzztime 10s ./internal/drift/

# test-scenario runs the declarative scenario runner's suite under the race
# detector: plan decode/validation tables, arrival-process determinism and
# rate-accuracy properties, the mem-transport byte-identical rerun tests,
# and the paced 3-daemon real-UDP smoke — then a short fuzz smoke over the
# plan decoder.
test-scenario:
	$(GO) test -race ./internal/scenario/
	$(GO) test -fuzz FuzzDecodeScenario -fuzztime 10s ./internal/scenario/

# test-drift runs the CDN-change detector suite under the race detector:
# config decode/validation tables, same-seed byte-identity, hysteresis and
# churn-rejection unit tests, the truth-schedule compiler's pinned windows,
# the daemon's drift-status op over both codecs, and the end-to-end
# precision/recall gate run — then a short fuzz smoke over the config
# decoder.
test-drift:
	$(GO) test -race ./internal/drift/ ./crp/ -run 'Drift|Detector|Config'
	$(GO) test -race ./internal/faults/ -run 'Event|Schedule'
	$(GO) test -race ./internal/crpdaemon/ -run 'Drift'
	$(GO) test -race ./internal/experiment/ -run 'Drift'
	$(GO) test -fuzz FuzzDecodeDriftConfig -fuzztime 10s ./internal/drift/

vet:
	$(GO) vet ./...

# fmt fails when any file diverges from gofmt, printing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# check is the pre-merge gate: formatting, static analysis, then the full
# suite under the race detector (the crp package runs real goroutine fan-out
# in its query and clustering paths).
check: fmt vet race
