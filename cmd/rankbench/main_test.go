package main

import (
	"testing"

	"temporalrank/internal/exp"
)

func tiny() exp.Params {
	p := exp.DefaultParams()
	p.M = 25
	p.Navg = 15
	p.KMax = 8
	p.K = 4
	p.R = 15
	p.NumQueries = 4
	return p
}

func TestRunSingleFigures(t *testing.T) {
	for _, fig := range []string{"12", "fig16", "updates", "ablations"} {
		if err := run(fig, tiny()); err != nil {
			t.Errorf("fig %s: %v", fig, err)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run("99", tiny()); err == nil {
		t.Error("unknown figure accepted")
	}
}
