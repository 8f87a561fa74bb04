.PHONY: verify test loc bench bench-e2e bench-e2e-short bench-read bench-repair bench-storage bench-consensus chaos obs-smoke

verify:
	./verify.sh

test:
	go test ./...

# loc prints non-test Go lines per package, then the two totals ROADMAP
# item 3 tracks: everything outside bench/, and the same without the
# harness and entry points (internal/experiments, cmd, examples).
GO_SRC = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'
loc:
	@$(GO_SRC) | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2
	@printf '%7d total outside bench/\n' "$$($(GO_SRC) | xargs cat | wc -l)"
	@printf '%7d total also excluding internal/experiments, cmd, examples\n' "$$($(GO_SRC) -not -path './internal/experiments/*' -not -path './cmd/*' -not -path './examples/*' | xargs cat | wc -l)"

bench:
	go test -bench=. -benchmem

# bench-e2e runs the repository's benchmark (BENCHMARK.json): five REST
# workloads over a loopback-TCP cluster, an untraced pass for the bounded
# end-to-end metrics and a traced pass for the per-layer budget. See
# bench/README.md. bench-e2e-short is its smoke scale.
bench-e2e:
	go run ./bench

bench-e2e-short:
	go run ./bench -short

# bench-read runs the A8 read-path study (quorum-first / hedge / coalesce
# under one slow replica, plus the hot-key coalescing bound) at a fixed seed
# and records its row under "read_path" in BENCH_results.json.
bench-read:
	go run ./cmd/mystore-bench -quick -seed 42 -json BENCH_results.json read_path

# bench-repair runs the A9 repair study (Merkle anti-entropy + streamed
# transfer rebuilding one diskless crash on a loaded cluster, plus foreground
# reads under throttled repair) at a fixed seed and records its row under
# "repair" in BENCH_results.json.
bench-repair:
	go run ./cmd/mystore-bench -quick -seed 42 -json BENCH_results.json repair

# bench-storage runs the A10 storage ablation (lsm memtable/SSTable engine
# with WAL checkpointing vs the seed's all-in-memory map engine: restart
# cost, resident heap, foreground p99 under rate-limited compaction) at a
# fixed seed and records its rows under "storage" in BENCH_results.json.
bench-storage:
	go run ./cmd/mystore-bench -quick -seed 42 -json BENCH_results.json storage

# bench-consensus runs the A11 consensus ablation (strong consensus-
# replicated puts vs eventual quorum puts, lease-served leader-local strong
# reads vs quorum reads, strong-write downtime across a leader kill) at a
# fixed seed and records its rows under "consensus" in BENCH_results.json.
bench-consensus:
	go run ./cmd/mystore-bench -quick -seed 42 -json BENCH_results.json consensus

# chaos runs the resilience gate: randomized fault schedules, crash-restarts
# with WAL recovery, and partitions; exits non-zero on any lost acked write,
# undrained hint queue, or deadline overrun.
chaos:
	go run ./cmd/mystore-bench -quick chaos
	go run ./cmd/mystore-bench -quick -seed 42 chaos

# obs-smoke boots a gateway over an in-process durable cluster, drives
# traffic, and asserts /metrics exports every required family, /stats kept
# its keys, and /debug/traces serves the traffic's traces.
obs-smoke:
	go test -run TestObsSmoke -count=1 -v .
