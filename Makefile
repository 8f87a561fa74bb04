.PHONY: verify test loc loc-check bench bench-e2e bench-e2e-short chaos obs-smoke

verify:
	./verify.sh

test:
	go test ./...

# loc prints non-test Go lines per package, then the two totals ROADMAP
# item 3 tracks: everything outside bench/, and the same without the
# harness and entry points (internal/experiments, cmd).
GO_SRC = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'
loc:
	@$(GO_SRC) | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2
	@printf '%7d total outside bench/\n' "$$($(GO_SRC) | xargs cat | wc -l)"
	@printf '%7d total also excluding internal/experiments and cmd\n' "$$($(GO_SRC) -not -path './internal/experiments/*' -not -path './cmd/*' | xargs cat | wc -l)"

# LOC_CEILING caps loc's total outside bench/ (ROADMAP item 3: make growth
# visible), and loc-check, which verify.sh runs, fails above it. A change that
# needs more lines raises the ceiling in its own diff and says why in
# CHANGES.md.
LOC_CEILING = 21373
loc-check:
	@n=$$($(GO_SRC) | xargs cat | wc -l); \
	if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "loc-check: $$n non-test lines outside bench/, above LOC_CEILING = $(LOC_CEILING). Raise LOC_CEILING in the Makefile in the same diff and say why in CHANGES.md." >&2; \
		exit 1; \
	fi; \
	echo "loc-check: $$n of $(LOC_CEILING) non-test lines outside bench/"

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
