package temporalrank_test

import (
	"context"
	"errors"
	"fmt"

	"temporalrank"
)

// The three objects of this example follow Figure 2 of the paper: o1
// (index 0 here) is never the instant leader on [t2,t3] yet wins the
// aggregate query there.
func ExampleDB_Run() {
	db, err := temporalrank.NewDB([]temporalrank.SeriesInput{
		{Times: []float64{0, 2, 4}, Values: []float64{6, 6, 6}}, // steady o1
		{Times: []float64{0, 2, 4}, Values: []float64{9, 1, 9}}, // dipping o2
		{Times: []float64{0, 2, 4}, Values: []float64{1, 8, 1}}, // peaking o3
	})
	if err != nil {
		panic(err)
	}
	ans, err := db.Run(context.Background(), temporalrank.SumQuery(2, 1, 3))
	if err != nil {
		panic(err)
	}
	for _, r := range ans.Results {
		fmt.Printf("object %d: %.1f\n", r.ID, r.Score)
	}
	// Output:
	// object 2: 12.5
	// object 0: 12.0
}

func ExampleIndex_Run_sum() {
	db, err := temporalrank.NewDB([]temporalrank.SeriesInput{
		{Times: []float64{0, 1, 2}, Values: []float64{3, 5, 4}},
		{Times: []float64{0, 1, 2}, Values: []float64{6, 1, 2}},
	})
	if err != nil {
		panic(err)
	}
	idx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		panic(err)
	}
	top, err := idx.Run(context.Background(), temporalrank.SumQuery(1, 0.5, 1.5))
	if err != nil {
		panic(err)
	}
	fmt.Printf("winner: object %d\n", top.Results[0].ID)
	// Output:
	// winner: object 0
}

func ExampleIndex_Run_avg() {
	db, err := temporalrank.NewDB([]temporalrank.SeriesInput{
		{Times: []float64{0, 10}, Values: []float64{4, 4}},
		{Times: []float64{0, 10}, Values: []float64{1, 5}},
	})
	if err != nil {
		panic(err)
	}
	idx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact2})
	if err != nil {
		panic(err)
	}
	avg, err := idx.Run(context.Background(), temporalrank.AvgQuery(1, 0, 10))
	if err != nil {
		panic(err)
	}
	fmt.Printf("object %d averages %.1f\n", avg.Results[0].ID, avg.Results[0].Score)
	// Output:
	// object 0 averages 4.0
}

func ExampleIndex_Run_instant() {
	db, err := temporalrank.NewDB([]temporalrank.SeriesInput{
		{Times: []float64{0, 2}, Values: []float64{0, 10}}, // rising
		{Times: []float64{0, 2}, Values: []float64{10, 0}}, // falling
	})
	if err != nil {
		panic(err)
	}
	idx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	early, _ := idx.Run(ctx, temporalrank.InstantQuery(1, 0.5))
	late, _ := idx.Run(ctx, temporalrank.InstantQuery(1, 1.5))
	fmt.Printf("at t=0.5 object %d leads; at t=1.5 object %d leads\n", early.Results[0].ID, late.Results[0].ID)
	// Output:
	// at t=0.5 object 1 leads; at t=1.5 object 0 leads
}

func ExampleNewDBFromSamples() {
	// Raw readings are segmented adaptively before indexing.
	objects := [][]temporalrank.Sample{
		{{T: 0, V: 1}, {T: 1, V: 2}, {T: 2, V: 3}, {T: 3, V: 4}, {T: 4, V: 5}}, // collinear
		{{T: 0, V: 5}, {T: 1, V: 0}, {T: 2, V: 5}, {T: 3, V: 0}, {T: 4, V: 5}}, // zig-zag
	}
	db, err := temporalrank.NewDBFromSamples(objects, temporalrank.SegmentBottomUp, 0.1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d objects, %d segments after segmentation\n", db.NumSeries(), db.NumSegments())
	// Output:
	// 2 objects, 5 segments after segmentation
}

// ExampleIndex_Run shows the unified query API: one Query value, one
// Run call, a typed Answer reporting which method answered and with
// what guarantee.
func ExampleIndex_Run() {
	db, err := temporalrank.NewDB([]temporalrank.SeriesInput{
		{Times: []float64{0, 2, 4}, Values: []float64{6, 6, 6}},
		{Times: []float64{0, 2, 4}, Values: []float64{9, 1, 9}},
		{Times: []float64{0, 2, 4}, Values: []float64{1, 8, 1}},
	})
	if err != nil {
		panic(err)
	}
	idx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		panic(err)
	}
	ans, err := idx.Run(context.Background(), temporalrank.Query{K: 2, T1: 1, T2: 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("answered by %s (exact=%v)\n", ans.Method, ans.Exact)
	for _, r := range ans.Results {
		fmt.Printf("object %d: %.1f\n", r.ID, r.Score)
	}
	// Output:
	// answered by EXACT3 (exact=true)
	// object 2: 12.5
	// object 0: 12.0
}

// ExamplePlanner routes queries by their declared error tolerance:
// MaxEpsilon == 0 demands an exact structure, MaxEpsilon > 0 admits
// the cheaper approximate one.
func ExamplePlanner() {
	series := make([]temporalrank.SeriesInput, 40)
	for i := range series {
		times := make([]float64, 50)
		values := make([]float64, 50)
		for j := range times {
			times[j] = float64(j)
			values[j] = float64((i*13+j*7)%29) + 1
		}
		series[i] = temporalrank.SeriesInput{Times: times, Values: values}
	}
	db, err := temporalrank.NewDB(series)
	if err != nil {
		panic(err)
	}
	exact, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		panic(err)
	}
	approx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2, TargetR: 30, KMax: 10})
	if err != nil {
		panic(err)
	}
	planner, err := temporalrank.NewPlanner(db, exact, approx)
	if err != nil {
		panic(err)
	}

	strict, err := planner.Run(context.Background(), temporalrank.Query{K: 3, T1: 5, T2: 45})
	if err != nil {
		panic(err)
	}
	tolerant, err := planner.Run(context.Background(),
		temporalrank.Query{K: 3, T1: 5, T2: 45, MaxEpsilon: 0.5})
	if err != nil {
		panic(err)
	}
	fmt.Printf("MaxEpsilon=0   -> %s (exact=%v)\n", strict.Method, strict.Exact)
	fmt.Printf("MaxEpsilon=0.5 -> %s (exact=%v)\n", tolerant.Method, tolerant.Exact)
	// Output:
	// MaxEpsilon=0   -> EXACT3 (exact=true)
	// MaxEpsilon=0.5 -> APPX2 (exact=false)
}

// ExampleErrNotMaterialized classifies failures with errors.Is — the
// payoff of typed sentinel errors over string matching.
func ExampleErrNotMaterialized() {
	series := make([]temporalrank.SeriesInput, 30)
	for i := range series {
		times := make([]float64, 20)
		values := make([]float64, 20)
		for j := range times {
			times[j] = float64(j)
			values[j] = float64((i*7+j*3)%17) + 1
		}
		series[i] = temporalrank.SeriesInput{Times: times, Values: values}
	}
	db, err := temporalrank.NewDB(series)
	if err != nil {
		panic(err)
	}
	// kmax=3 over 30 objects: most objects have no materialized score.
	idx, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2, TargetR: 20, KMax: 3})
	if err != nil {
		panic(err)
	}
	for id := 0; id < db.NumSeries(); id++ {
		if _, err := idx.Score(id, 2, 18); errors.Is(err, temporalrank.ErrNotMaterialized) {
			exact, _ := db.Score(id, 2, 18)
			fmt.Printf("object %d not materialized; exact fallback %.0f\n", id, exact)
			break
		}
	}
	if _, err := idx.Run(context.Background(), temporalrank.SumQuery(10, 2, 18)); errors.Is(err, temporalrank.ErrKTooLarge) {
		fmt.Println("k=10 exceeds kmax=3")
	}
	// Output:
	// object 0 not materialized; exact fallback 148
	// k=10 exceeds kmax=3
}
