package mystore

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// A strong put is acked once a majority holds it in the consensus log; its
// apply logs into the store's WAL without waiting for that WAL's fsync. These
// tests take the whole replica set down and drop from every store WAL what a
// power loss could drop (an in-process kill leaves the page cache intact, so
// the test cuts the files itself), then require every acked write back at its
// acked value.

// storeWALSegments lists node i's store WAL segment files, oldest first.
func storeWALSegments(t *testing.T, dataDir string, i int) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dataDir, fmt.Sprintf("node-%d", i), "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("node %d: no store WAL segments (%v)", i, err)
	}
	sort.Strings(segs)
	return segs
}

// cutStoreWAL drops every record above LSN keep from node i's store WAL, as
// a power loss with the log durable through keep would.
func cutStoreWAL(t *testing.T, dataDir string, i int, keep uint64) (dropped int) {
	t.Helper()
	for _, seg := range storeWALSegments(t, dataDir, i) {
		hex := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(seg), "wal-"), ".seg")
		lsn, err := strconv.ParseUint(hex, 16, 64) // the segment's first LSN
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(seg, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Record layout (internal/wal): magic byte, crc32, length, payload.
		// Segments are preallocated: past the last record come zeros, or a
		// recycled segment's stale records.
		const magic = 0xA6
		hdr := make([]byte, 9)
		next := func(off int64) (int64, bool) {
			if _, err := f.ReadAt(hdr, off); err != nil || hdr[0] != magic {
				return off, false
			}
			return off + int64(len(hdr)) + int64(binary.LittleEndian.Uint32(hdr[5:9])), true
		}
		var off int64
		for ok := true; ok && lsn <= keep; lsn++ {
			off, ok = next(off)
		}
		for end, ok := next(off); ok; end, ok = next(end) {
			dropped++
		}
		// What a power loss leaves of a block it never wrote: the zeros the
		// segment was prepared with. The file keeps its size.
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, st.Size()-off), off); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return dropped
}

func testStrongCrashRecovery(t *testing.T, ranges, writes int, wantCompaction bool) {
	const et = 100 * time.Millisecond
	dataDir := t.TempDir()
	c := startTestCluster(t, ClusterOptions{
		Nodes: 3, N: 3,
		DataDir: dataDir, Durable: true,
		StrongRanges: ranges, StrongElectionTimeout: et,
	})
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for r := 0; r < 8; r++ { // elect every range's leader before the clock matters
		key := fmt.Sprintf("warm-%d", r)
		for client.StrongPut(ctx, key, []byte(key)) != nil {
			if time.Now().After(deadline) {
				t.Fatalf("no leader for %s", key)
			}
		}
	}

	// Where each store WAL stands before the acked set: nothing waits for
	// these records' fsync, so a power loss may take every one of them.
	before := make([]uint64, 3)
	for i, n := range c.Nodes() {
		before[i] = uint64(n.Store().WAL().NextLSN() - 1)
	}
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("acked-%04d", i)
		if err := client.StrongPut(ctx, key, []byte(key)); err != nil {
			t.Fatalf("StrongPut %s: %v", key, err)
		}
	}

	// What survives: without a log compaction nothing forced the store WALs
	// to disk, so they fall back to where they stood; with one, they keep
	// exactly their durable prefix — which the compaction marker must not have
	// outrun.
	keep := append([]uint64(nil), before...)
	if wantCompaction {
		for i, n := range c.Nodes() {
			keep[i] = uint64(n.Store().WAL().DurableLSN())
			if keep[i] <= before[i] {
				t.Fatalf("node %d: store WAL durable through %d, no further than before the writes (%d): the consensus log never compacted, or compacted without syncing the store", i, keep[i], before[i])
			}
			// The kill lands between a trim and the next marker: a replica
			// holding fewer entries in memory than were written after the
			// first marker has dropped some that only the WAL tail above
			// that marker still has.
			if held := n.Consensus().LogEntries(0); held >= writes-markerEvery {
				t.Fatalf("node %d holds %d log entries in memory: nothing was trimmed past its marker", i, held)
			}
		}
	}
	for i := range c.Nodes() {
		if err := c.KillNode(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := range c.Nodes() {
		if dropped := cutStoreWAL(t, dataDir, i, keep[i]); dropped == 0 {
			t.Fatalf("node %d: nothing to drop above LSN %d; the test exercised nothing", i, keep[i])
		}
	}
	for i := range c.Nodes() {
		if _, err := c.RestartNodeFresh(i); err != nil {
			t.Fatalf("RestartNodeFresh(%d): %v", i, err)
		}
	}

	readDeadline := time.Now().Add(50 * et)
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("acked-%04d", i)
		strongGetEventually(t, client, key, key, readDeadline)
	}
}

// TestStrongWritesSurviveLosingTheStoreWALTail: the acked writes are in no
// store WAL after the crash; the consensus log redoes them.
func TestStrongWritesSurviveLosingTheStoreWALTail(t *testing.T) {
	t.Run("lsm", func(t *testing.T) { testStrongCrashRecovery(t, 4, 40, false) })
}

// markerEvery is how many applied entries a consensus group spaces its
// compaction markers by: the consensus log bound, 1024 entries.
const markerEvery = 1024

// TestStrongWritesSurviveCrashAfterLogCompaction: enough writes into one range
// that its log compacts (one marker per markerEvery applied entries) along the
// way, and is trimmed in memory past that marker before the kill. Entries
// below the marker are gone from the consensus log, so the store must hold
// them durably; entries above it are redone from the WAL.
func TestStrongWritesSurviveCrashAfterLogCompaction(t *testing.T) {
	testStrongCrashRecovery(t, 1, markerEvery+300, true)
}
