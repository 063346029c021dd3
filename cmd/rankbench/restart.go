package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"temporalrank"
	"temporalrank/internal/exp"
	"temporalrank/internal/gen"
)

// restartMethods is the index set the restart smoke builds and
// restores: the strongest exact index plus an approximate one, the
// configuration a production rankserver would run.
var restartMethods = []temporalrank.Options{
	{Method: temporalrank.MethodExact3},
	{Method: temporalrank.MethodAppx2},
}

// smokeQueries derives a deterministic probe workload from a cluster's
// time domain: a handful of sum/avg/instant queries spread across it.
func smokeQueries(start, end float64, k int, seed int64) []temporalrank.Query {
	rng := rand.New(rand.NewSource(seed))
	span := end - start
	qs := []temporalrank.Query{
		temporalrank.SumQuery(k, start, end),
		temporalrank.AvgQuery(k, start, end),
		temporalrank.InstantQuery(k, start+span/2),
	}
	for i := 0; i < 5; i++ {
		t1 := start + rng.Float64()*span*0.7
		t2 := t1 + rng.Float64()*span*0.3
		qs = append(qs, temporalrank.SumQuery(k, t1, t2), temporalrank.AvgQuery(k, t1, t2))
	}
	return qs
}

// smokeAnswer is one probe query and its expected ranking, recorded by
// -snapshot-write and re-checked by -snapshot-check in a fresh process.
type smokeAnswer struct {
	Agg    string   `json:"agg"`
	K      int      `json:"k"`
	T1     float64  `json:"t1"`
	T2     float64  `json:"t2"`
	IDs    []int    `json:"ids"`
	Scores []uint64 `json:"scores"` // math.Float64bits, so JSON cannot blur equality
}

// smokeManifest is the expected.json sidecar -snapshot-write leaves
// next to the shard files.
type smokeManifest struct {
	Shards  int           `json:"shards"`
	Answers []smokeAnswer `json:"answers"`
}

const smokeManifestName = "expected.json"

// runSnapshotWrite builds a small deterministic cluster, checkpoints it
// into dir, and records the answers to a probe workload so a separate
// process (-snapshot-check) can verify the restore end to end.
func runSnapshotWrite(dir string, p exp.Params) error {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: p.M, Navg: p.Navg, Seed: p.Seed, Span: 1000})
	if err != nil {
		return err
	}
	c, err := temporalrank.NewClusterFromDB(temporalrank.NewDBFromDataset(ds), temporalrank.ClusterOptions{
		Shards:  2,
		Indexes: restartMethods,
	})
	if err != nil {
		return err
	}
	if err := c.Checkpoint(dir); err != nil {
		return err
	}
	man := smokeManifest{Shards: c.NumShards()}
	ctx := context.Background()
	for _, q := range smokeQueries(c.Start(), c.End(), p.K, p.Seed) {
		ans, err := c.Run(ctx, q)
		if err != nil {
			return err
		}
		sa := smokeAnswer{Agg: string(q.Agg), K: q.K, T1: q.T1, T2: q.T2}
		for _, r := range ans.Results {
			sa.IDs = append(sa.IDs, r.ID)
			sa.Scores = append(sa.Scores, math.Float64bits(r.Score))
		}
		man.Answers = append(man.Answers, sa)
	}
	f, err := os.Create(filepath.Join(dir, smokeManifestName))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(man); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("snapshot written to %s (%d shards, %d probe answers recorded)\n",
		dir, man.Shards, len(man.Answers))
	return nil
}

// runSnapshotCheck restores the cluster written by -snapshot-write in
// this (fresh) process and requires every recorded probe answer to
// match bit for bit. Nonzero exit on any divergence.
func runSnapshotCheck(dir string, p exp.Params) error {
	f, err := os.Open(filepath.Join(dir, smokeManifestName))
	if err != nil {
		return err
	}
	var man smokeManifest
	err = json.NewDecoder(f).Decode(&man)
	f.Close()
	if err != nil {
		return err
	}
	restoreStart := time.Now()
	c, err := temporalrank.OpenClusterSnapshot(dir, temporalrank.ClusterOptions{})
	if err != nil {
		return err
	}
	restoreMS := float64(time.Since(restoreStart)) / float64(time.Millisecond)
	if c.NumShards() != man.Shards {
		return fmt.Errorf("restored %d shards, want %d", c.NumShards(), man.Shards)
	}
	ctx := context.Background()
	for _, sa := range man.Answers {
		q := temporalrank.Query{Agg: temporalrank.Agg(sa.Agg), K: sa.K, T1: sa.T1, T2: sa.T2}
		ans, err := c.Run(ctx, q)
		if err != nil {
			return fmt.Errorf("probe %+v: %w", q, err)
		}
		if len(ans.Results) != len(sa.IDs) {
			return fmt.Errorf("probe %+v: %d results, want %d", q, len(ans.Results), len(sa.IDs))
		}
		for i, r := range ans.Results {
			if r.ID != sa.IDs[i] || math.Float64bits(r.Score) != sa.Scores[i] {
				return fmt.Errorf("probe %+v rank %d: got %d/%v, want %d/%v",
					q, i, r.ID, r.Score, sa.IDs[i], math.Float64frombits(sa.Scores[i]))
			}
		}
	}
	fmt.Printf("snapshot check ok: %d shards restored in %.1fms, %d probe answers match\n",
		man.Shards, restoreMS, len(man.Answers))
	return nil
}
