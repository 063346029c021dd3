// Command shardserver hosts cluster shard replicas for the distributed
// serving tier. It restores every shard-NNNN.trsnap snapshot under
// -data into a queryable Planner (no index rebuild) and serves the
// length-prefixed gob RPCs a RemoteCluster router issues:
//
//	meta        topology/health probe (hosted shards + data versions)
//	routing     one shard's global-ID list (router placement)
//	query       one shard's top-k answer, results in global IDs
//	append      apply one segment to a hosted shard
//	score       one object's σ(t1,t2) on its owning shard
//	checkpoint  persist a hosted shard back to -data atomically
//	snapshot    stream a point-in-time snapshot of one shard
//	restore     pull a shard from a peer and install it (bootstrap)
//
// An empty -data directory is valid: the node starts hosting nothing
// and acquires its shards through restore RPCs — how a replacement
// replica bootstraps. Seed snapshot directories come from
// Cluster.Checkpoint, rankserver's durable mode, or
// rankbench -snapshot-write.
//
// Usage:
//
//	shardserver -addr :7070 -data shards/
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"temporalrank"
)

func main() {
	var (
		addr     = flag.String("addr", ":7070", "RPC listen address")
		data     = flag.String("data", "", "snapshot directory holding this node's shard-NNNN.trsnap files (created if missing; may start empty)")
		memtable = flag.Int("memtable", 0, "memtable flush threshold of every hosted shard: replicated appends land in the shard's memtable and a background compaction rebuilds its indexes once this many segments are buffered (0 = the default, 4096)")
	)
	flag.Parse()
	if err := run(*addr, *data, *memtable); err != nil {
		fmt.Fprintln(os.Stderr, "shardserver:", err)
		os.Exit(1)
	}
}

func run(addr, data string, memtable int) error {
	if data == "" {
		return fmt.Errorf("-data is required (snapshot directory)")
	}
	node, err := temporalrank.NewShardNodeWithOptions(data, temporalrank.ShardNodeOptions{
		Memtable: &temporalrank.MemtableOptions{FlushSegments: memtable},
	})
	if err != nil {
		return err
	}
	defer node.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("hosting shards %v from %s on %s", node.Shards(), data, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- node.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down")
	return node.Close()
}
