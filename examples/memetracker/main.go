// Memetracker: rank phrases by total observed coverage in a time
// window on a bursty, Meme-like dataset — the paper's second workload.
// Bursty data is the stress test for the approximate indexes: this
// example measures precision/recall and the size/IO advantage of
// APPX2 (1MB-scale index) against the exact answer, mirroring Figures
// 19–20.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"temporalrank"
	"temporalrank/internal/gen"
)

func main() {
	ds, err := gen.Meme(gen.MemeConfig{M: 3000, Navg: 67, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	fmt.Printf("meme db: %d phrases, %d records, days [%.1f, %.1f]\n",
		db.NumSeries(), db.NumSegments(), db.Start(), db.End())

	apx, err := db.BuildIndex(temporalrank.Options{
		Method:  temporalrank.MethodAppx2,
		TargetR: 500,
		KMax:    100,
	})
	if err != nil {
		log.Fatal(err)
	}
	plus, err := db.BuildIndex(temporalrank.Options{
		Method:  temporalrank.MethodAppx2P,
		TargetR: 500,
		KMax:    100,
	})
	if err != nil {
		log.Fatal(err)
	}

	const k = 20
	rng := rand.New(rand.NewSource(1))
	span := db.End() - db.Start()
	ctx := context.Background()

	var prApx, prPlus float64
	var ioApx, ioPlus uint64
	const trials = 25
	for q := 0; q < trials; q++ {
		t1 := db.Start() + rng.Float64()*span*0.7
		t2 := t1 + span*0.2
		q := temporalrank.SumQuery(k, t1, t2)
		want, err := db.Run(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		set := map[int]bool{}
		for _, w := range want.Results {
			set[w.ID] = true
		}
		count := func(idx *temporalrank.Index) (float64, uint64) {
			idx.ResetStats()
			got, err := idx.Run(ctx, q)
			if err != nil {
				log.Fatal(err)
			}
			hits := 0
			for _, g := range got.Results {
				if set[g.ID] {
					hits++
				}
			}
			return float64(hits) / float64(k), idx.Stats().DeviceIOs
		}
		p1, io1 := count(apx)
		p2, io2 := count(plus)
		prApx += p1
		prPlus += p2
		ioApx += io1
		ioPlus += io2
	}

	fmt.Printf("\nAPPX2 : precision/recall %.3f, avg IOs %.1f, index %d bytes\n",
		prApx/trials, float64(ioApx)/trials, apx.Stats().Bytes)
	fmt.Printf("APPX2+: precision/recall %.3f, avg IOs %.1f, index %d bytes\n",
		prPlus/trials, float64(ioPlus)/trials, plus.Stats().Bytes)

	// Show one concrete answer: the hottest memes of mid-season.
	t1 := db.Start() + span*0.45
	t2 := t1 + span*0.1
	top, err := plus.Run(ctx, temporalrank.SumQuery(5, t1, t2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop-5 phrases by total coverage in days [%.1f, %.1f]:\n", t1, t2)
	for rank, r := range top.Results {
		fmt.Printf("  %d. phrase %-6d coverage %.1f\n", rank+1, r.ID, r.Score)
	}
}
