package temporalrank_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"temporalrank"
	"temporalrank/internal/gen"
)

// benchCluster builds a shard-count-parameterized cluster over one
// shared random-walk dataset (EXACT3 per shard, the serving default),
// with a result cache of resultCache entries (0 = none).
func benchCluster(tb testing.TB, shards, resultCache int) *temporalrank.Cluster {
	tb.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 400, Navg: 60, Seed: 4, Span: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := temporalrank.NewClusterFromDB(temporalrank.NewDBFromDataset(ds), temporalrank.ClusterOptions{
		Shards:      shards,
		Indexes:     []temporalrank.Options{{Method: temporalrank.MethodExact3}},
		ResultCache: resultCache,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkClusterRun measures one scatter-gather top-k per iteration
// at 1 vs 8 shards — the scale-out latency trajectory.
func BenchmarkClusterRun(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := benchCluster(b, shards, 0)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(9))
			span := c.End() - c.Start()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t1 := c.Start() + rng.Float64()*span*0.7
				if _, err := c.Run(ctx, temporalrank.SumQuery(10, t1, t1+span*0.2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterAppend measures the sharded ingest path.
func BenchmarkClusterAppend(b *testing.B) {
	c := benchCluster(b, 8, 0)
	rng := rand.New(rand.NewSource(10))
	tcur := c.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tcur += 0.25
		if err := c.Append(rng.Intn(c.NumSeries()), tcur, rng.NormFloat64()); err != nil {
			b.Fatal(err)
		}
	}
}
