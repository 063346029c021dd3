// Command datagen generates synthetic Temp-like or Meme-like temporal
// datasets (the stand-ins for the paper's MesoWest and Memetracker
// data) and writes them as CSV ("id,time,value" rows) or the compact
// TRK1 binary format.
//
// Usage:
//
//	datagen -kind temp -m 1000 -navg 100 -o temp.csv
//	datagen -kind meme -m 5000 -navg 67 -format binary -o meme.trk
package main

import (
	"flag"
	"fmt"
	"os"

	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
	"temporalrank/internal/tsio"
)

func main() {
	var (
		kind   = flag.String("kind", "temp", "generator: temp, meme, or walk")
		m      = flag.Int("m", 1000, "number of objects")
		navg   = flag.Int("navg", 100, "average readings per object")
		seed   = flag.Int64("seed", 2012, "RNG seed")
		format = flag.String("format", "csv", "output format: csv or binary")
		out    = flag.String("o", "-", "output path (- for stdout)")
	)
	flag.Parse()

	if err := run(*kind, *m, *navg, *seed, *format, *out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(kind string, m, navg int, seed int64, format, out string) error {
	var (
		ds  *tsdata.Dataset
		err error
	)
	switch kind {
	case "temp":
		ds, err = gen.Temp(gen.TempConfig{M: m, Navg: navg, Seed: seed})
	case "meme":
		ds, err = gen.Meme(gen.MemeConfig{M: m, Navg: navg, Seed: seed})
	case "walk":
		ds, err = gen.RandomWalk(gen.RandomWalkConfig{M: m, Navg: navg, Seed: seed})
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return err
	}

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close() // on an error path; success closes below
		w = f
	}
	switch format {
	case "csv":
		err = tsio.WriteCSV(w, ds)
	case "binary":
		err = tsio.WriteBinary(w, ds)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return err
	}
	// A write the kernel deferred can still fail here.
	if out != "-" {
		if err := w.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %s dataset: m=%d N=%d domain=[%g,%g]\n",
		kind, ds.NumSeries(), ds.NumSegments(), ds.Start(), ds.End())
	return nil
}
