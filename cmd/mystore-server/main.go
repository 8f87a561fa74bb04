// mystore-server runs one MyStore storage node: the local document store,
// the NWR coordinator, and the gossip endpoint, served over TCP.
//
// Start a seed node, then point further nodes at it:
//
//	mystore-server -addr 10.0.0.1:19870 -seeds 10.0.0.1:19870 -data /var/lib/mystore
//	mystore-server -addr 10.0.0.2:19870 -seeds 10.0.0.1:19870 -data /var/lib/mystore
//
// The node serves until interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mystore"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:19870", "address to listen on")
	seeds := flag.String("seeds", "", "comma-separated seed node addresses (include this node's address to make it a seed)")
	dataDir := flag.String("data", "", "persistence directory: WAL plus lsm tables (empty = a scratch directory under $TMPDIR, removed at shutdown)")
	durable := flag.Bool("durable", false, "fsync every write before acknowledging (group-committed)")
	memtable := flag.Int64("memtable", 0, "lsm memtable budget in bytes before flushing to an SSTable (0 = default 4 MiB)")
	weight := flag.Int("weight", 1, "capacity weight (scales virtual nodes)")
	n := flag.Int("n", 3, "replication factor N")
	w := flag.Int("w", 2, "write quorum W")
	r := flag.Int("r", 1, "read quorum R")
	gossipEvery := flag.Duration("gossip", time.Second, "gossip interval")
	strongRanges := flag.Int("strong-ranges", 0, "consensus ranges for the CP tier (0 = strong consistency off)")
	strongElection := flag.Duration("strong-election", 0, "consensus election timeout (0 = default 150ms)")
	flag.Parse()

	var seedList []string
	for _, s := range strings.Split(*seeds, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seedList = append(seedList, s)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	node, err := mystore.ListenNode(ctx, *addr, mystore.NodeOptions{
		Seeds:                 seedList,
		Weight:                *weight,
		N:                     *n,
		W:                     *w,
		R:                     *r,
		DataDir:               *dataDir,
		Durable:               *durable,
		MemtableBytes:         *memtable,
		StrongRanges:          *strongRanges,
		StrongElectionTimeout: *strongElection,
		GossipInterval:        *gossipEvery,
	})
	if err != nil {
		log.Fatalf("start node: %v", err)
	}
	defer node.Close()
	fmt.Printf("mystore node listening on %s (seeds: %v, NWR=%d/%d/%d)\n",
		node.Addr(), seedList, *n, *w, *r)

	<-ctx.Done()
	fmt.Println("shutting down")
}
