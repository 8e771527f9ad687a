GO ?= go

.PHONY: build test bench bench-gate check chaos fleet-scale fuzz-smoke scenario stdout-guard flight-smoke trace-demo doctor-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# bench-gate reruns the hot-path microbenchmarks (broker fanout, msg codecs,
# transport round trip — single-connection and with 1000 live connections —
# flush cost at 10 and 1000 in flight, the file-backed outbox's add + ack,
# the scheduler hop on the real clock) and compares them against the
# checked-in BENCH_hotpath.json: B/op or allocs/op more than 15% worse than
# the baseline fails the build
# (allocation counts are machine-independent, so a real increase is a code
# regression); ns/op deltas are printed but advisory. After an intentional
# change, refresh the baseline with `go run ./cmd/pogo-bench -run hotpath`
# and commit the new JSON. The fleet gate applies the same policy to the
# per-device memory diet: fleet_bytes_per_phone or allocs_per_delivery more
# than 15% worse than the BENCH_fleet.json 2000-phone row fails; wall-clock
# is advisory. Refresh with `go run ./cmd/pogo-bench -run fleet` (it
# rewrites BENCH_fleet.json in place, and hard-fails if the delivery-log
# hash varies across the shard-count sweep); an intentional hash change must
# update testdata/scenarios/fleet.txtar too.
bench-gate:
	$(GO) run ./cmd/pogo-bench -run hotpath -gate
	$(GO) run ./cmd/pogo-bench -run fleet -gate

# check is the tier-1 gate, eight steps: the library-stdout guard; vet plus
# gofmt (any file `gofmt -l` lists fails it); the full test suite under the
# race detector, which also runs every seeded pin (the scenario archives
# with their delivery-log hashes and goldens, the latency SLO table); the
# end-to-end harness's own smoke (bench/ is a nested module `go test ./...`
# does not descend into: real stack with the audit on, and BENCHMARK.json
# checked against the harness); a short fuzz smoke of the wire-facing
# parsers; the allocation regression gate; the flight-recorder smoke; and the
# alerting smoke. It leaves the tree clean.
check: stdout-guard
	$(GO) vet ./... && f=$$(gofmt -l .) && if [ -n "$$f" ]; then echo "gofmt needed:" $$f; exit 1; fi
	$(GO) test -race ./...
	$(GO) -C bench test -short ./...
	$(MAKE) fuzz-smoke
	$(MAKE) bench-gate
	$(MAKE) flight-smoke
	$(MAKE) doctor-smoke

# fuzz-smoke gives the coverage-guided fuzzers a brief shake on every check:
# the stanza reader that faces raw TCP bytes and the switchboard core against
# its reference model (xmpp); in msg, the receive path's body decode
# (FuzzDecode), reading a message from its bytes against reading its decoded
# tree — validation, JSON, paths, a script's view (FuzzRaw) — and the plain
# binary codec's round trip (FuzzBinaryRoundTrip); the scenario parser; the
# outbox log's replay, which faces whatever a crash or a bad disk left
# (store); the transport's delivery core against its reference model, with
# the fuzzer's bytes also fed to the envelope decoder as inbound payloads
# (FuzzLink), and the envelope codec itself: whatever decodes re-encodes to
# itself, and whatever encodes decodes to itself (FuzzEnvelope); and
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

# flight-smoke forces a chaos audit failure (the post-window drain is
# sabotaged, so messages stay genuinely in flight) and asserts the flight
# recorder dumps a loadable span-store snapshot whose in-flight traces
# reconstruct their publish→deliver paths.
flight-smoke:
	@rm -f /tmp/pogo-flight.json
	@! $(GO) run ./cmd/pogo-bench -run chaos -sabotage-drain -flightout /tmp/pogo-flight.json > /dev/null 2>&1 \
		|| (echo "flight-smoke: sabotaged run unexpectedly passed its audit"; exit 1)
	@test -s /tmp/pogo-flight.json \
		|| (echo "flight-smoke: no dump written"; exit 1)
	$(GO) run ./cmd/pogo-bench -verify-flight /tmp/pogo-flight.json
	@echo "flight-smoke: ok"

# doctor-smoke is the alerting end-to-end check: pogo-doctor builds a short
# chaos world with a rigged duplicate delivery, serves its registry over
# loopback HTTP, and runs its own health battery against it. The smoke passes
# only if the battery detects trouble AND the expected rules are firing —
# proving the rule pack, the /alerts endpoint, and the doctor's checks agree.
doctor-smoke:
	$(GO) run ./cmd/pogo-doctor -selftest -expect exactly_once_violation,delivery_latency_slo
	@echo "doctor-smoke: ok"

# trace-demo runs the 50-phone chaos scenario matrix with causal tracing
# attached and writes the final (heaviest) scenario's span timeline to
# trace.json — load it at ui.perfetto.dev or chrome://tracing.
trace-demo:
	$(GO) run ./cmd/pogo-bench -run chaos -seed 1 -traceout trace.json
	@echo "trace-demo: open trace.json in ui.perfetto.dev (or chrome://tracing)"

# Library packages must never write to stdout/stderr directly — script
# output goes through core.LogStore and diagnostics through internal/obs.
# (Example* functions in _test.go files are exempt: go test requires them
# to print.)
stdout-guard:
	@! grep -rn --include='*.go' -E '\b(fmt|log)\.Print(f|ln)?\(' internal/ \
		| grep -v _test.go \
		| grep . && echo "stdout-guard: ok" || (echo "stdout-guard: stray print in internal/ (see above)"; exit 1)
