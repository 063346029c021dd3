// Stocks: the paper's other motivating query — "find the top-20 stocks
// having the largest total transaction volumes from 02/05/2011 to
// 02/07/2011" — plus the §4 update model: trading days append new
// segments at the time frontier through the planner, which buffers them
// in its memtable and answers queries between appends without waiting
// for a rebuild.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"temporalrank"
)

const (
	numStocks = 400
	histDays  = 250 // one year of trading history
	liveDays  = 20  // appended live, day by day
	topK      = 10
)

func main() {
	rng := rand.New(rand.NewSource(99))

	// Historical volume curves: lognormal daily volumes with occasional
	// volume spikes (earnings days).
	series := make([]temporalrank.SeriesInput, numStocks)
	base := make([]float64, numStocks)
	for s := 0; s < numStocks; s++ {
		base[s] = math.Exp(rng.NormFloat64()*1.2 + 10) // typical daily volume
		times := make([]float64, histDays)
		values := make([]float64, histDays)
		for d := 0; d < histDays; d++ {
			times[d] = float64(d)
			v := base[s] * math.Exp(rng.NormFloat64()*0.4)
			if rng.Float64() < 0.02 {
				v *= 4 + rng.Float64()*6 // earnings spike
			}
			values[d] = v
		}
		series[s] = temporalrank.SeriesInput{Times: times, Values: values}
	}
	db, err := temporalrank.NewDB(series)
	if err != nil {
		log.Fatal(err)
	}

	idx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact2})
	if err != nil {
		log.Fatal(err)
	}
	// The planner is the write path: appends land in its memtable, and
	// queries merge them with the index until a background compaction
	// rebuilds it over the grown data.
	p, err := temporalrank.NewPlanner(db, idx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("stock db: %d stocks, %d historical days\n", numStocks, histDays)

	// Trailing-3-day volume leaders before the live period.
	show := func(label string, t1, t2 float64) {
		ans, err := p.Run(context.Background(), temporalrank.SumQuery(topK, t1, t2))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s — top-%d by total volume over days [%.0f, %.0f]:\n", label, topK, t1, t2)
		for rank, r := range ans.Results {
			fmt.Printf("  %2d. stock %-4d volume %.3g\n", rank+1, r.ID, r.Score)
		}
	}
	show("history", histDays-3, histDays-1)

	// Live trading: each day every stock appends one new reading; a
	// crash-day spike makes a mid-cap stock dominate.
	spotlight := 123
	for d := 0; d < liveDays; d++ {
		day := float64(histDays + d)
		for s := 0; s < numStocks; s++ {
			v := base[s] * math.Exp(rng.NormFloat64()*0.4)
			if s == spotlight && d >= liveDays/2 {
				v *= 50 // sustained frenzy in the spotlight stock
			}
			if err := p.Append(s, day, v); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("\nappended %d live days (%d segments) through the planner\n",
		liveDays, liveDays*numStocks)

	show("live window", float64(histDays+liveDays/2), float64(histDays+liveDays-1))
	fmt.Printf("\n(expect stock %d to lead the live window)\n", spotlight)
}
