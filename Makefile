.PHONY: verify test bench bench-e2e bench-e2e-short bench-read bench-repair bench-storage bench-consensus chaos obs-smoke

verify:
	./verify.sh

test:
	go test ./...

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

# bench-read runs the A8 read-path ablation (quorum-first / hedge / coalesce
# vs the seed's wait-for-all read, one slow replica) at a fixed seed and
# records its rows under "read_path" in BENCH_results.json.
bench-read:
	go run ./cmd/mystore-bench -quick -seed 42 -json BENCH_results.json read_path

# bench-repair runs the A9 repair ablation (Merkle anti-entropy + streamed
# transfer vs the seed's flat digests + item-at-a-time movement, one diskless
# crash on a loaded cluster) at a fixed seed and records its rows under
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
