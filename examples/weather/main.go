// Weather: the paper's motivating example — "return the top-10
// weather stations having the highest average temperature from
// 10/01/2010 to 10/07/2010" — on a synthetic MesoWest-like dataset.
//
// It builds both the best exact index (EXACT3) and an approximate one
// (APPX1, (ε,1)-guarantee) and compares their answers and IO costs on
// the same queries. avg is sum/(t2-t1), so ranking by sum ranks by avg.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"temporalrank"
	"temporalrank/internal/gen"
)

func main() {
	// ~500 station-years of temperature curves (seasonal + diurnal).
	ds, err := gen.Temp(gen.TempConfig{M: 500, Navg: 365, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	db := temporalrank.NewDBFromDataset(ds)
	fmt.Printf("weather db: %d stations, %d readings, days [%.0f, %.0f]\n",
		db.NumSeries(), db.NumSegments(), db.Start(), db.End())

	exactIdx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		log.Fatal(err)
	}
	apxIdx, err := db.BuildIndex(temporalrank.Options{
		Method:  temporalrank.MethodAppx1,
		TargetR: 300,
		KMax:    50,
	})
	if err != nil {
		log.Fatal(err)
	}

	// "The first week of October": days 274–281.
	t1, t2 := 274.0, 281.0
	const k = 10

	run := func(name string, idx *temporalrank.Index) []temporalrank.Result {
		idx.ResetStats()
		start := time.Now()
		ans, err := idx.Run(context.Background(), temporalrank.SumQuery(k, t1, t2))
		if err != nil {
			log.Fatal(err)
		}
		res := ans.Results
		fmt.Printf("\n%s: top-%d stations by avg temperature, days [%g,%g] — %d IOs, %v\n",
			name, k, t1, t2, idx.Stats().DeviceIOs, time.Since(start))
		for rank, r := range res {
			fmt.Printf("  %2d. station %-5d avg %.2f\n", rank+1, r.ID, r.Score/(t2-t1))
		}
		return res
	}

	exact := run("EXACT3", exactIdx)
	approx := run("APPX1 ", apxIdx)

	match := 0
	set := map[int]bool{}
	for _, r := range exact {
		set[r.ID] = true
	}
	for _, r := range approx {
		if set[r.ID] {
			match++
		}
	}
	fmt.Printf("\nagreement: %d/%d stations, APPX1 index %d bytes vs EXACT3 %d bytes\n",
		match, k, apxIdx.Stats().Bytes, exactIdx.Stats().Bytes)
}
