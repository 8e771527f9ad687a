GO ?= go

.PHONY: build test bench check chaos fleet-scale fuzz-smoke scenario trace-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# check is the tier-1 gate in four steps: vet plus gofmt (any file `gofmt -l`
# lists fails it); the full test suite under the race detector, which also
# runs every pin — the seeded ones (the scenario archives with their
# delivery-log hashes and goldens, the latency SLO table), the hot path's
# allocation counts and bytes and the flush's cost at 10k inflight against
# 10, each in the package whose code it guards, the fleet's memory diet, the
# library-stdout guard, the exported-name guard (TestExportsHaveCallers: every
# name under internal/ has a caller), the flight-recorder drill and the
# doctor's selftest;
# the end-to-end harness's own smoke (bench/ is a nested module `go test
# ./...` does not descend into: real stack with the audit on, and
# BENCHMARK.json checked against the harness); and a short fuzz smoke of the
# wire-facing parsers. It leaves the tree clean.
check:
	$(GO) vet ./... && f=$$(gofmt -l .) && if [ -n "$$f" ]; then echo "gofmt needed:" $$f; exit 1; fi
	$(GO) test -race ./...
	$(GO) -C bench test -short ./...
	$(MAKE) fuzz-smoke

# fuzz-smoke gives the coverage-guided fuzzers a brief shake on every check:
# the stanza reader that faces raw TCP bytes and the switchboard core against
# its reference model (xmpp); in msg, the receive path's body decode
# (FuzzDecode), reading a message from its bytes against reading its decoded
# tree — validation, JSON, paths, a script's view (FuzzRaw) — and the plain
# binary codec's round trip (FuzzBinaryRoundTrip); the scenario parser; the
# outbox log's replay, which faces whatever a crash or a bad disk left
# (store); the transport's delivery core against its reference model, with
# the fuzzer's bytes also fed to the envelope decoder as inbound payloads
# (FuzzLink), and the envelope codec itself, an item's trace as a
# publication-number delta or an explicit ID and a map as its values alone
# when its channel's previous message has its keys: whatever decodes
# re-encodes to itself, and whatever encodes decodes to itself
# (FuzzEnvelope); and
# PogoScript (FuzzScript: bytes as a program, which must lex, parse and
# compile or fail cleanly, and run twice under a small budget
# without a panic, doing the same both times and failing with the budget
# error exactly when it runs past it) and the script encoder against the
# tree builder it replaced (FuzzToMsg: a graph of script values must encode,
# and print as json(), exactly as the reference tree does). Run e.g.
# `go test -fuzz 'FuzzRaw$' -fuzztime 5m ./internal/msg` for a real session.
# internal/xmpp, internal/msg, internal/transport and internal/script have
# several fuzz targets each, and `go test -fuzz` only accepts a pattern
# matching exactly one, so each is named explicitly.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParseStanza$$' -fuzztime 10s ./internal/xmpp
	$(GO) test -run '^$$' -fuzz 'FuzzSwitchboard$$' -fuzztime 10s ./internal/xmpp
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 10s ./internal/msg
	$(GO) test -run '^$$' -fuzz 'FuzzRaw$$' -fuzztime 10s ./internal/msg
	$(GO) test -run '^$$' -fuzz 'FuzzBinaryRoundTrip$$' -fuzztime 10s ./internal/msg
	$(GO) test -run '^$$' -fuzz 'FuzzScenarioParse$$' -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz 'FuzzReplay$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz 'FuzzLink$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz 'FuzzEnvelope$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz 'FuzzScript$$' -fuzztime 10s ./internal/script
	$(GO) test -run '^$$' -fuzz 'FuzzToMsg$$' -fuzztime 10s ./internal/script

# chaos replays the seeded fault-injection matrix (drop, duplicate, corrupt,
# delay, partition, churn at three fault levels) under the race detector,
# then prints each level's report via pogo-bench: the delivery audit, fault
# counts, delivery-log hash and per-topic latency quantiles. The hashes are
# pinned in testdata/scenarios/chaos.txtar and the quantiles in
# internal/experiments TestLatencyPinned.
chaos:
	$(GO) test -race -v -run 'Chaos|Soak' ./internal/experiments ./internal/core
	$(GO) run -race ./cmd/pogo-bench -run chaos -seed 1

# fleet-scale records the phones-vs-throughput scaling curve (10k and 100k
# phones, each serial and at 8 shards) into BENCH_fleet.json alongside the
# default 2000-phone sweep. The 100k rows take minutes; run manually after
# changes that touch per-device memory or the epoch barrier.
fleet-scale:
	$(GO) run ./cmd/pogo-bench -run fleet -seed 1 -fleet-scale 10000,100000

# scenario runs the txtar-scripted testbed suite under the race detector:
# every archive in internal/scenario/testdata/scenarios executes twice with
# the same seed and must produce byte-identical transcripts and match its
# pinned hashes and goldens, and the scenario parsers get their table-driven
# workout. Then the runner lists the library. Not part of check, whose race
# suite already covers the package. Regenerate goldens with
# `go run ./cmd/pogo-scenario -update`.
scenario:
	$(GO) test -race ./internal/scenario
	$(GO) run ./cmd/pogo-scenario -list

# trace-demo runs the 50-phone chaos scenario matrix with causal tracing
# attached and writes the final (heaviest) scenario's span timeline to
# trace.json — load it at ui.perfetto.dev or chrome://tracing.
trace-demo:
	$(GO) run ./cmd/pogo-bench -run chaos -seed 1 -traceout trace.json
	@echo "trace-demo: open trace.json in ui.perfetto.dev (or chrome://tracing)"
