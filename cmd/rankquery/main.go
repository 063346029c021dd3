// Command rankquery loads a temporal dataset (CSV or TRK1 binary, told
// apart by the file's first bytes), builds one of the paper's indexes, and answers aggregate top-k
// queries: top-k(t1, t2, sum).
//
// Usage:
//
//	rankquery -data temp.csv -method EXACT3 -k 10 -t1 50 -t2 120
//	rankquery -data meme.trk -method APPX2 -k 20 -t1 10 -t2 60 -r 300
//
// It prints the ranked objects with their aggregate scores and the
// query's IO count and latency.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"temporalrank"
	"temporalrank/internal/tsio"
)

func main() {
	var (
		data    = flag.String("data", "", "dataset path, CSV or TRK1 binary (required)")
		method  = flag.String("method", "EXACT3", "index method (EXACT1/2/3, APPX1-B, APPX2-B, APPX1, APPX2, APPX2+)")
		k       = flag.Int("k", 10, "number of results")
		t1      = flag.Float64("t1", 0, "query interval start")
		t2      = flag.Float64("t2", 0, "query interval end")
		r       = flag.Int("r", 500, "breakpoint budget for approximate methods")
		kmax    = flag.Int("kmax", 200, "max k supported by approximate methods")
		verbose = flag.Bool("v", false, "print per-result exact scores for comparison")
	)
	flag.Parse()
	if err := run(*data, *method, *k, *t1, *t2, *r, *kmax, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "rankquery:", err)
		os.Exit(1)
	}
}

func run(data, method string, k int, t1, t2 float64, r, kmax int, verbose bool) error {
	if data == "" {
		return fmt.Errorf("-data is required")
	}
	f, err := os.Open(data)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := tsio.Read(f)
	if err != nil {
		return err
	}
	db := temporalrank.NewDBFromDataset(ds)
	fmt.Printf("loaded %d objects, %d segments, domain [%g, %g]\n",
		db.NumSeries(), db.NumSegments(), db.Start(), db.End())

	if t2 <= t1 {
		// Default to the middle 20% of the domain.
		span := db.End() - db.Start()
		t1 = db.Start() + span*0.4
		t2 = t1 + span*0.2
		fmt.Printf("no -t1/-t2 given; using [%g, %g]\n", t1, t2)
	}

	buildStart := time.Now()
	idx, err := db.BuildIndex(temporalrank.Options{
		Method:  temporalrank.Method(method),
		TargetR: r,
		KMax:    kmax,
	})
	if err != nil {
		return err
	}
	st := idx.Stats()
	fmt.Printf("built %s in %v: %d pages (%d bytes)\n",
		method, time.Since(buildStart).Round(time.Millisecond), st.Pages, st.Bytes)

	idx.ResetStats()
	queryStart := time.Now()
	ans, err := idx.Run(context.Background(), temporalrank.SumQuery(k, t1, t2))
	if err != nil {
		return err
	}
	results := ans.Results
	elapsed := time.Since(queryStart)
	ios := idx.Stats().DeviceIOs

	fmt.Printf("\ntop-%d(%g, %g, sum) — %d IOs, %v\n", k, t1, t2, ios, elapsed)
	for rank, res := range results {
		line := fmt.Sprintf("%3d. object %-8d score %.4f", rank+1, res.ID, res.Score)
		if verbose {
			exact, err := db.Score(res.ID, t1, t2)
			if err == nil {
				line += fmt.Sprintf("   (exact %.4f)", exact)
			}
		}
		fmt.Println(line)
	}
	return nil
}
