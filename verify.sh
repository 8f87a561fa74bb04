#!/bin/sh
# verify.sh — the repo's tier-1 gate: vet, build, the line ceiling (make
# loc-check: non-test Go lines outside bench/ must not exceed the Makefile's
# LOC_CEILING; a change that needs more raises it in the same diff and says
# why in CHANGES.md), full test suite, twenty
# repeats of the packages whose tests read their own writes through a quorum
# (a read-your-writes flake shows up within twenty runs, not in one), five of
# the strong tier's failover and crash-recovery tests (commits are applied off
# the reply path, so their timing is what a regression there moves), of its
# membership and peer-health tests (a restarted-empty node's pinned members,
# commits while the peer view holds every peer suspect, a call outcome
# outranking gossip's silence) and of its
# log-horizon tests (what each replica keeps in memory, and the versions a
# restarted or snapshotted leader stamps), and the
# race detector on the write path (docstore, wal, transport, nwr), the
# resilience-bearing packages (cluster, gossip, cache, dispatch, resilience),
# the CP tier (consensus), the repair path (merkle), the observability
# packages (metrics, trace), and twenty race runs of the transport's worker
# hand-off tests (every replica RPC runs on those workers); then short
# native-fuzz smokes of the four readers
# that take bytes they did not just write — the wire frame reader, the
# replica record protocol (nwr.put.replica / nwr.get.replica bodies), the
# docstore's WAL replay and the WAL's segment scan-and-repair on open — and
# the switch guard: the system has one
# configuration, so a Disable*/WaitForAllReads/SerializeWritePath switch in
# non-test code fails the gate (bench/ is the frozen benchmark driver and is
# not scanned). A store without a directory runs in a mystore-scratch-*
# directory under ${TMPDIR:-/tmp} that its Close or Crash removes, so one that
# the full test suite leaves behind fails the gate too.
# CI and pre-commit both run exactly this.
set -eux

go vet ./...
go build ./...
make -s loc-check
scratch() { ls -d "${TMPDIR:-/tmp}"/mystore-scratch-* 2>/dev/null || true; }
scratch_before=$(scratch)
go test ./...
scratch_leaked=$(scratch | grep -vxF "$scratch_before" || true)
if [ -n "$scratch_leaked" ]; then
	echo "verify.sh: go test ./... left scratch directories behind: $scratch_leaked" >&2
	exit 1
fi
go test -count=20 ./internal/nwr ./internal/cluster
go test -count=20 -run 'TestPublicAPICrud' .
go test -count=5 -run 'TestStrongFailoverAcrossLeaderKill|TestStrongNonMemberRedirectsAfterLongFailure|TestStrongRestartedEmptyKeepsPinnedMembers|TestStrongCommitReachesSuspectPeers|TestCallOutcomeOutranksGossipSilence|TestStrongWritesSurvive|TestLogHoldsOnlyWhatAReplicaNeeds|TestLaggingPeerPinsLogUpToCap|TestNewLeaderFeedsCurrentFollowerFromItsLog|KeepsVersionsAboveTheClock' \
	. ./internal/consensus ./internal/cluster
go test -race ./internal/docstore ./internal/lsm ./internal/wal ./internal/transport ./internal/nwr \
	./internal/cluster ./internal/gossip ./internal/cache ./internal/dispatch ./internal/resilience \
	./internal/consensus ./internal/merkle ./internal/metrics ./internal/trace
go test -race -count=20 -run '^TestWorker' ./internal/transport
go test -run '^$' -fuzz FuzzMuxServe -fuzztime 5s ./internal/transport
go test -run '^$' -fuzz FuzzReplicaMessage -fuzztime 5s ./internal/nwr
go test -run '^$' -fuzz FuzzReplayRecord -fuzztime 5s ./internal/docstore
go test -run '^$' -fuzz FuzzOpenSegment -fuzztime 5s ./internal/wal

set +x
if grep -rnE '\b(Disable[A-Z][A-Za-z]*|WaitForAllReads|SerializeWritePath)\b' --include='*.go' . |
	grep -v -e '^\./bench/' -e '_test\.go:'; then
	echo "verify.sh: ablation switch found in non-test code (see above); ROADMAP item 3 keeps one implementation per job" >&2
	exit 1
fi
echo "verify.sh: ok"
