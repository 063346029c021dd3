// Persistence: checkpoint a built index stack to disk, then restore
// it with zero rebuilds. The checkpoint stores each index's device
// pages verbatim plus the dataset, so the restored Planner answers
// bit-for-bit identically to the original — and keeps accepting
// appends, because the append frontiers survive the round trip.
//
// The same protocol scales out: Cluster.Checkpoint writes one
// atomically-committed snapshot file per shard, and
// OpenClusterSnapshot reassembles the full cluster from them (what
// `rankserver -data dir/` does on boot).
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"temporalrank"
)

const (
	numObjects = 300
	numDays    = 120
)

func main() {
	rng := rand.New(rand.NewSource(7))
	series := make([]temporalrank.SeriesInput, numObjects)
	for i := range series {
		times := make([]float64, numDays)
		values := make([]float64, numDays)
		level := 30 + rng.Float64()*50
		for d := range times {
			times[d] = float64(d)
			level += rng.NormFloat64() * 3
			values[d] = math.Max(level, 0)
		}
		series[i] = temporalrank.SeriesInput{Times: times, Values: values}
	}

	// Build once: an exact and an approximate index behind a Planner.
	db, err := temporalrank.NewDB(series)
	if err != nil {
		log.Fatal(err)
	}
	buildStart := time.Now()
	exact, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		log.Fatal(err)
	}
	appx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2, TargetR: 64})
	if err != nil {
		log.Fatal(err)
	}
	planner, err := temporalrank.NewPlanner(db, exact, appx)
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(buildStart)

	// Checkpoint the whole stack — dataset, both indexes, planner
	// metadata — into one atomically-committed snapshot file.
	dir, err := os.MkdirTemp("", "temporalrank-persistence-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "rank.trsnap")
	if err := planner.Checkpoint(path); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("built in %v, checkpointed %d KiB to %s\n",
		buildTime.Round(time.Millisecond), fi.Size()/1024, filepath.Base(path))

	// "Restart": open the file in what would be a fresh process. No
	// index is rebuilt — the pages are replayed as written.
	restoreStart := time.Now()
	restored, err := temporalrank.OpenSnapshot(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored in %v (%.0fx faster than the build)\n\n",
		time.Since(restoreStart).Round(time.Microsecond),
		float64(buildTime)/float64(time.Since(restoreStart)))

	// The restored stack answers identically, bit for bit.
	ctx := context.Background()
	q := temporalrank.SumQuery(5, 20, 90)
	a, err := planner.Run(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	b, err := restored.Run(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-5 by sum over [20, 90]   original    restored")
	for i := range a.Results {
		same := "=="
		if a.Results[i] != b.Results[i] {
			same = "!!"
		}
		fmt.Printf("  #%d  object %3d            %10.2f  %s %.2f\n",
			i+1, a.Results[i].ID, a.Results[i].Score, same, b.Results[i].Score)
	}

	// And it is still live: appends keep working after restore.
	if err := restored.Append(0, float64(numDays), 999); err != nil {
		log.Fatal(err)
	}
	after, err := restored.Run(ctx, temporalrank.InstantQuery(3, float64(numDays)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter appending a spike to object 0: instant top-1 at t=%d is object %d (%.1f)\n",
		numDays, after.Results[0].ID, after.Results[0].Score)
}
