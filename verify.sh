#!/bin/sh
# verify.sh — the repo's tier-1 gate: vet, build, full test suite, twenty
# repeats of the packages whose tests read their own writes through a quorum
# (a read-your-writes flake shows up within twenty runs, not in one), and the
# race detector on the write path (docstore, wal, transport, nwr), the
# resilience-bearing packages (cluster, gossip, cache, dispatch, resilience),
# the CP tier (consensus), the repair path (merkle) and the observability
# packages (metrics, trace).
# CI and pre-commit both run exactly this.
set -eux

go vet ./...
go build ./...
go test ./...
go test -count=20 ./internal/nwr ./internal/cluster
go test -count=20 -run 'TestPublicAPICrud' .
go test -race ./internal/docstore ./internal/lsm ./internal/wal ./internal/transport ./internal/nwr \
	./internal/cluster ./internal/gossip ./internal/cache ./internal/dispatch ./internal/resilience \
	./internal/consensus ./internal/merkle ./internal/metrics ./internal/trace
