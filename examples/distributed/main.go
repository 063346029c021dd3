// Distributed serving: the same top-k queries, answered by a
// replicated tier of shard servers behind a scatter-gather router.
// This example boots the whole thing in one process — a 2-shard
// cluster checkpointed to disk, two replicas per shard restored from
// those snapshots, and a RemoteCluster routing over real TCP sockets
// — then shows the three properties the tier is built around:
//
//  1. Transparency: RemoteCluster implements Querier, and its answers
//     are bit-identical to the local cluster's.
//  2. Fault tolerance: killing a replica mid-flight degrades nothing;
//     reads fail over to the survivor.
//  3. Replicated ingest: appends go to every replica synchronously,
//     so failover never serves stale data.
//
// In production the four nodes are `shardserver` processes on
// different machines and the router is `rankserver -router`.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"

	"temporalrank"
)

const (
	numObjects = 300
	numDays    = 120
	shards     = 2
	replicas   = 2
)

func main() {
	rng := rand.New(rand.NewSource(7))
	series := make([]temporalrank.SeriesInput, numObjects)
	for i := range series {
		times := make([]float64, numDays)
		values := make([]float64, numDays)
		level := 20 + rng.Float64()*80
		for d := range times {
			times[d] = float64(d)
			level += rng.NormFloat64() * 4
			values[d] = math.Max(level, 0)
		}
		series[i] = temporalrank.SeriesInput{Times: times, Values: values}
	}

	// Build the reference cluster and checkpoint it: the snapshot
	// directory is how shard servers get their data in the first place.
	local, err := temporalrank.NewCluster(series, temporalrank.ClusterOptions{
		Shards:  shards,
		Indexes: []temporalrank.Options{{Method: temporalrank.MethodExact3}},
	})
	if err != nil {
		log.Fatal(err)
	}
	root, err := os.MkdirTemp("", "distributed-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	master := filepath.Join(root, "master")
	if err := os.MkdirAll(master, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := local.Checkpoint(master); err != nil {
		log.Fatal(err)
	}

	// Boot shards×replicas shard nodes, each restoring one shard's
	// snapshot file — group g's replicas all serve shard g.
	groups := make([][]string, shards)
	nodes := make([][]*temporalrank.ShardNode, shards)
	for g := 0; g < shards; g++ {
		name := fmt.Sprintf("shard-%04d.trsnap", g)
		blob, err := os.ReadFile(filepath.Join(master, name))
		if err != nil {
			log.Fatal(err)
		}
		for r := 0; r < replicas; r++ {
			dir := filepath.Join(root, fmt.Sprintf("g%dr%d", g, r))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				log.Fatal(err)
			}
			node, err := temporalrank.NewShardNode(dir)
			if err != nil {
				log.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			go node.Serve(ln)
			defer node.Close()
			groups[g] = append(groups[g], ln.Addr().String())
			nodes[g] = append(nodes[g], node)
		}
		fmt.Printf("shard %d replicas: %v\n", g, groups[g])
	}

	// The router discovers the topology, checks every group hosts its
	// shard, and from here on is just another Querier.
	router, err := temporalrank.NewRemoteCluster(groups, temporalrank.RemoteClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()

	ctx := context.Background()
	q := temporalrank.SumQuery(5, 20, 90)
	remote, err := router.Run(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	reference, err := local.Run(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop-5 by sum over [20, 90], routed across the tier:")
	for i, r := range remote.Results {
		fmt.Printf("  #%d  object %3d  score %.2f  (local: object %3d  score %.2f)\n",
			i+1, r.ID, r.Score, reference.Results[i].ID, reference.Results[i].Score)
	}

	// Kill one replica per group. Reads fail over to the survivors —
	// same answers, no errors.
	for g := range nodes {
		nodes[g][1].Close()
	}
	afterKill, err := router.Run(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	same := len(afterKill.Results) == len(remote.Results)
	for i := range afterKill.Results {
		same = same && afterKill.Results[i] == remote.Results[i]
	}
	fmt.Printf("\nkilled one replica per shard: query still answered, identical=%v\n", same)
	if err := router.HealthCheck(ctx); err != nil {
		log.Fatal(err)
	}
	for _, g := range router.Health() {
		for _, rep := range g.Replicas {
			fmt.Printf("  shard %d replica %s: %s\n", g.Shard, rep.Addr, rep.State)
		}
	}

	// Ingest still works against the surviving replicas and is
	// reflected by the very next read.
	if err := router.Append(7, float64(numDays)+10, 500); err != nil {
		log.Fatal(err)
	}
	score, err := router.Score(7, float64(numDays), float64(numDays)+10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nappended a spike to object 7 through the router; σ(last interval) = %.1f\n", score)
}
