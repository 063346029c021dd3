package breakpoint

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"temporalrank/internal/tsdata"
)

// TestSpeculationIndependent holds the ε search to the reference
// whatever its speculation guesses: always right, always wrong, or the
// model's own guess, on two cores, and on one, where nothing is
// speculated. A right guess has every speculative probe taken over,
// with its limit lowered after it started; a wrong one has every one
// cancelled. The sets must be the reference's bit for bit either way,
// and no probe goroutine may still run once a search returns.
//
// Under the race detector, which makes every search several times
// slower, the matrix shrinks to the lazy pass on Temp at m = 50 and
// four of the stairs budgets: enough to take over, cancel and stop
// probes on two goroutines.
func TestSpeculationIndependent(t *testing.T) {
	type input struct {
		name    string
		ds      *tsdata.Dataset
		targets []int
	}
	var inputs []input
	lazies := []bool{true, false}
	stairsTargets := []int{3, 4, 5, 40, 41, 43, 150, 151}
	if raceEnabled {
		inputs = append(inputs, input{"temp/m=50", identityDatasets(t, 50)["temp"], []int{2, 3, 40, 150, 500}})
		lazies, stairsTargets = []bool{true}, []int{3, 5, 41, 151}
	} else {
		for kind, ds := range identityDatasets(t, 200) {
			inputs = append(inputs, input{kind + "/m=200", ds, []int{2, 3, 40, 150, 500}})
		}
	}
	// TestTargetRUnreachableBudget's input, where the search runs all 40
	// probes and overshoots are abandoned.
	inputs = append(inputs, input{"stairs", stairs(t, 4), stairsTargets})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range inputs {
		for _, lazy := range lazies {
			probe := referenceProbes(in.ds, lazy)
			want := make([]*Set, len(in.targets))
			for i, r := range in.targets {
				var err error
				if want[i], err = referenceTargetR(probe, r); err != nil {
					t.Fatal(err)
				}
			}
			// above is what the probe at eps does: place more than r
			// breakpoints, which the search takes like an abandoned
			// probe, or not.
			above := func(eps float64, r int) bool {
				s, err := probe(eps)
				if err != nil {
					t.Fatal(err)
				}
				return s.R() > r
			}
			runs := []struct {
				procs int
				guess string
				f     func(eps float64, r int) bool
			}{
				{1, "none", nil},
				{2, "right", above},
				{2, "wrong", func(eps float64, r int) bool { return !above(eps, r) }},
				{2, "model", nil},
			}
			for _, run := range runs {
				runtime.GOMAXPROCS(run.procs)
				where := fmt.Sprintf("%s lazy=%v procs=%d guess=%s", in.name, lazy, run.procs, run.guess)
				got, err := build2WithTargetRs(in.ds, in.targets, lazy, run.f)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				noProbeGoroutine(t, where)
				for i, r := range in.targets {
					sameSet(t, fmt.Sprintf("%s r=%d", where, r), got[i], want[i])
				}
			}
		}
	}
}

// noProbeGoroutine fails the test if a speculating goroutine is still
// running. One that has closed its exited channel may still be
// returning from that statement for a moment, so it gets that long to
// go; one that is still running a probe or waiting for the next never
// does.
func noProbeGoroutine(t *testing.T, where string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; {
		stacks := buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(stacks, []byte("(*speculator).loop")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: a probe goroutine outlived the search:\n%s", where, stacks)
		}
		time.Sleep(time.Millisecond)
	}
}
