// Command rankbench regenerates the paper's evaluation tables and
// figures (Figures 11–20 of "Ranking Large Temporal Data", VLDB 2012)
// on synthetic Temp/Meme workloads.
//
// Usage:
//
//	rankbench -fig 12                 # one figure at defaults
//	rankbench -fig all -m 2000        # the whole evaluation, bigger data
//	rankbench -fig updates -queries 20
//	rankbench -snapshot-write snapdir/ && rankbench -snapshot-check snapdir/
//
// Figures: 11 12 13 14 15 16 17 18 19 20 updates ablations all
//
// -snapshot-write / -snapshot-check skip the figures; they are the CI
// restart smoke (and seed scripts/dist_smoke.sh's tier): the write
// half checkpoints a deterministic cluster and records probe
// answers; the check half restores it in a fresh process and verifies
// every answer bit for bit.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"temporalrank/internal/exp"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to reproduce: 11..20, updates, ablations, or all")
		dataset   = flag.String("dataset", "temp", "dataset: temp, meme, or walk")
		m         = flag.Int("m", 0, "number of objects (0 = default)")
		navg      = flag.Int("navg", 0, "average segments per object (0 = default)")
		r         = flag.Int("r", 0, "breakpoint budget (0 = default)")
		k         = flag.Int("k", 0, "query k (0 = default)")
		kmax      = flag.Int("kmax", 0, "max k for approximate indexes (0 = default)")
		queries   = flag.Int("queries", 0, "queries per measurement (0 = default)")
		seed      = flag.Int64("seed", 0, "RNG seed (0 = default)")
		frac      = flag.Float64("frac", 0, "query interval as fraction of T (0 = default)")
		blockSize = flag.Int("block", 0, "device block size in bytes (0 = 4096)")
		snapWrite = flag.String("snapshot-write", "", "build a small deterministic cluster, checkpoint it into this directory, and record probe answers (CI restart smoke, write half)")
		snapCheck = flag.String("snapshot-check", "", "restore the cluster written by -snapshot-write from this directory in a fresh process and verify every recorded probe answer (CI restart smoke, check half)")
	)
	flag.Parse()

	p := exp.DefaultParams()
	p.Dataset = *dataset
	if *m > 0 {
		p.M = *m
	}
	if *navg > 0 {
		p.Navg = *navg
	}
	if *r > 0 {
		p.R = *r
	}
	if *k > 0 {
		p.K = *k
	}
	if *kmax > 0 {
		p.KMax = *kmax
	}
	if *queries > 0 {
		p.NumQueries = *queries
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *frac > 0 {
		p.IntervalFrac = *frac
	}
	if *blockSize > 0 {
		p.BlockSize = *blockSize
	}

	if *snapWrite != "" {
		if err := runSnapshotWrite(*snapWrite, p); err != nil {
			fmt.Fprintln(os.Stderr, "rankbench:", err)
			os.Exit(1)
		}
		return
	}
	if *snapCheck != "" {
		if err := runSnapshotCheck(*snapCheck, p); err != nil {
			fmt.Fprintln(os.Stderr, "rankbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*fig, p); err != nil {
		fmt.Fprintln(os.Stderr, "rankbench:", err)
		os.Exit(1)
	}
}

func run(fig string, p exp.Params) error {
	w := os.Stdout
	rSweep := exp.DefaultRSweep(p.R)
	mSweep := []int{p.M / 2, p.M, p.M * 2}
	navgSweep := []int{p.Navg / 2, p.Navg, p.Navg * 2}
	fracs := []float64{0.02, 0.10, 0.20, 0.30, 0.50}
	ks := []int{p.K / 2, p.K, p.KMax / 2, p.KMax}
	kmaxes := []int{p.KMax / 2, p.KMax, p.KMax * 2}

	dispatch := map[string]func() error{
		"11": func() error { _, err := exp.Fig11(w, p, rSweep); return err },
		"12": func() error { _, err := exp.Fig12(w, p, rSweep); return err },
		"13": func() error { _, err := exp.Fig13(w, p, mSweep); return err },
		"14": func() error { _, err := exp.Fig14(w, p, navgSweep); return err },
		"15": func() error { _, err := exp.Fig15(w, p, mSweep, navgSweep); return err },
		"16": func() error { _, err := exp.Fig16(w, p, fracs); return err },
		"17": func() error { _, err := exp.Fig17(w, p, ks); return err },
		"18": func() error { _, err := exp.Fig18(w, p, kmaxes); return err },
		"19": func() error { _, err := exp.Fig19(w, p); return err },
		"20": func() error { _, err := exp.Fig20(w, p); return err },
		"updates": func() error {
			_, err := exp.Updates(w, p, 200)
			return err
		},
		"ablations": func() error { _, err := exp.Ablations(w, p); return err },
	}

	if fig == "all" {
		order := []string{"11", "12", "13", "14", "15", "16", "17", "18", "19", "20", "updates", "ablations"}
		for _, f := range order {
			if err := dispatch[f](); err != nil {
				return fmt.Errorf("fig %s: %w", f, err)
			}
		}
		return nil
	}
	f, ok := dispatch[strings.TrimPrefix(fig, "fig")]
	if !ok {
		return fmt.Errorf("unknown figure %q (want 11..20, updates, ablations, all)", fig)
	}
	return f()
}
