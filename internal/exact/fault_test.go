package exact

import (
	"errors"
	"testing"

	"temporalrank/internal/blockio"
)

// TestQueryFaultPropagation injects device failures at every possible
// point of a query and verifies each method returns the error instead
// of panicking or fabricating results.
func TestQueryFaultPropagation(t *testing.T) {
	ds := randomDataset(40, 20, 15, false)
	builders := []struct {
		name  string
		build func(dev blockio.Device) (Method, error)
	}{
		{"EXACT1", func(dev blockio.Device) (Method, error) { return BuildExact1(dev, ds) }},
		{"EXACT2", func(dev blockio.Device) (Method, error) { return BuildExact2(dev, ds) }},
		{"EXACT3", func(dev blockio.Device) (Method, error) { return BuildExact3(dev, ds) }},
	}
	t1 := ds.Start() + ds.Span()*0.2
	t2 := ds.Start() + ds.Span()*0.7
	for _, b := range builders {
		fd := blockio.NewFaultDevice(blockio.NewViewOnlyDevice(512), -1)
		m, err := b.build(fd)
		if err != nil {
			t.Fatalf("%s build: %v", b.name, err)
		}
		// Baseline: healthy query to learn the IO count.
		fd.ResetStats()
		if _, err := m.TopK(5, t1, t2); err != nil {
			t.Fatalf("%s healthy query: %v", b.name, err)
		}
		ops := int64(fd.Stats().Total())
		if ops == 0 {
			t.Fatalf("%s: healthy query did no IO", b.name)
		}
		// Fail at several budgets across the query's IO trace.
		for _, budget := range []int64{0, 1, ops / 2, ops - 1} {
			fd.Arm(budget)
			_, err := m.TopK(5, t1, t2)
			if err == nil {
				t.Errorf("%s: fault at budget %d/%d swallowed", b.name, budget, ops)
			} else if !errors.Is(err, blockio.ErrInjected) {
				t.Errorf("%s: fault at budget %d returned %v, want ErrInjected", b.name, budget, err)
			}
			fd.Disarm()
		}
		// After disarming, the index must still answer correctly.
		got, err := m.TopK(5, t1, t2)
		if err != nil {
			t.Fatalf("%s post-fault query: %v", b.name, err)
		}
		itemsMatch(t, b.name+"(recovered)", got, referenceTopK(ds, 5, t1, t2))
	}
}

// TestBuildFaultPropagation: failures during construction surface as
// errors.
func TestBuildFaultPropagation(t *testing.T) {
	ds := randomDataset(41, 10, 10, false)
	// Learn each build's healthy op count, then fail at fractions of it.
	healthy := func(build func(dev blockio.Device) error) int64 {
		dev := blockio.NewViewOnlyDevice(512)
		if err := build(dev); err != nil {
			t.Fatalf("healthy build failed: %v", err)
		}
		s := dev.Stats()
		return int64(s.Total() + s.Allocs)
	}
	builds := []struct {
		name string
		f    func(dev blockio.Device) error
	}{
		{"EXACT2", func(dev blockio.Device) error { _, err := BuildExact2(dev, ds); return err }},
		{"EXACT3", func(dev blockio.Device) error { _, err := BuildExact3(dev, ds); return err }},
	}
	for _, b := range builds {
		ops := healthy(b.f)
		for _, budget := range []int64{0, 1, ops / 2, ops - 1} {
			fd := blockio.NewFaultDevice(blockio.NewViewOnlyDevice(512), budget)
			if err := b.f(fd); !errors.Is(err, blockio.ErrInjected) {
				t.Errorf("%s build with budget %d/%d: err = %v, want ErrInjected", b.name, budget, ops, err)
			}
		}
	}
}
