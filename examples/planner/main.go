// Planner: one DB, several indexes, one declarative query API. The
// caller states its error tolerance per query and the Planner routes
// to the cheapest structure that satisfies it — exact when demanded,
// approximate when tolerated, brute force when nothing qualifies.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"

	"temporalrank"
)

const (
	numObjects = 300
	numDays    = 200
)

func main() {
	rng := rand.New(rand.NewSource(7))
	series := make([]temporalrank.SeriesInput, numObjects)
	for i := range series {
		times := make([]float64, numDays)
		values := make([]float64, numDays)
		level := 50 + rng.Float64()*100
		for d := range times {
			times[d] = float64(d)
			level += rng.NormFloat64() * 5
			values[d] = math.Max(level, 0)
		}
		series[i] = temporalrank.SeriesInput{Times: times, Values: values}
	}
	db, err := temporalrank.NewDB(series)
	if err != nil {
		log.Fatal(err)
	}

	// Exact path plus two approximate structures of different ε.
	exact3, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		log.Fatal(err)
	}
	coarse, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2, TargetR: 100, KMax: 50})
	if err != nil {
		log.Fatal(err)
	}
	fine, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2P, TargetR: 400, KMax: 50})
	if err != nil {
		log.Fatal(err)
	}
	planner, err := temporalrank.NewPlanner(db, exact3, coarse, fine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planner over %d indexes: ", len(planner.Indexes()))
	for _, ix := range planner.Indexes() {
		fmt.Printf("%s(ε=%.3g) ", ix.Method(), ix.Epsilon())
	}
	fmt.Println()

	ctx := context.Background()
	queries := []temporalrank.Query{
		{K: 10, T1: 20, T2: 120},                                   // exact demanded
		{K: 10, T1: 20, T2: 120, MaxEpsilon: 1},                    // any approximation fine
		{K: 10, T1: 20, T2: 120, MaxEpsilon: coarse.Epsilon() / 2}, // only the fine index fits
		{K: 10, T1: 20, T2: 120, MaxEpsilon: fine.Epsilon() / 10},  // tighter than every index → exact
		{Agg: temporalrank.AggInstant, K: 5, T1: 75},               // instant → EXACT3
	}
	for _, q := range queries {
		ans, err := planner.Run(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("agg=%-7s eps<=%-8.3g -> %-9s exact=%-5v ios=%-5d top: object %d (%.0f)\n",
			q.Agg, q.MaxEpsilon, ans.Method, ans.Exact, ans.IOs,
			ans.Results[0].ID, ans.Results[0].Score)
	}

	// Typed errors classify failures across every layer.
	if _, err := coarse.Run(ctx, temporalrank.SumQuery(500, 20, 120)); errors.Is(err, temporalrank.ErrKTooLarge) {
		fmt.Println("k=500 exceeds the approximate index's kmax — typed, not stringly")
	}
	if _, err := planner.Run(ctx, temporalrank.SumQuery(5, 120, 20)); errors.Is(err, temporalrank.ErrBadInterval) {
		fmt.Println("inverted interval rejected with ErrBadInterval")
	}
}
