// Package core ties the paper's methods together behind one engine: it
// builds any of the eight indexes (EXACT1/2/3, APPX1-B, APPX2-B,
// APPX1, APPX2, APPX2+) from a dataset and a shared configuration, and
// measures queries uniformly (wall time, block IOs, result quality).
// The experiment harness (internal/exp) and the public API (package
// temporalrank) are thin layers over this engine.
package core

import (
	"fmt"
	"time"

	"temporalrank/internal/approx"
	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/exact"
	"temporalrank/internal/topk"
	"temporalrank/internal/tsdata"
)

// MethodName identifies one of the paper's methods.
type MethodName string

// The eight methods of the paper's evaluation (§5).
const (
	Exact1 MethodName = "EXACT1"
	Exact2 MethodName = "EXACT2"
	Exact3 MethodName = "EXACT3"
	Appx1B MethodName = "APPX1-B"
	Appx2B MethodName = "APPX2-B"
	Appx1  MethodName = "APPX1"
	Appx2  MethodName = "APPX2"
	Appx2P MethodName = "APPX2+"
)

// AllMethods lists every method in the paper's presentation order.
func AllMethods() []MethodName {
	return []MethodName{Exact1, Exact2, Exact3, Appx1B, Appx2B, Appx1, Appx2, Appx2P}
}

// ExactMethods lists the §2 methods.
func ExactMethods() []MethodName { return []MethodName{Exact1, Exact2, Exact3} }

// ApproxMethods lists the §3 methods.
func ApproxMethods() []MethodName {
	return []MethodName{Appx1B, Appx2B, Appx1, Appx2, Appx2P}
}

// IsApprox reports whether the method gives approximate answers.
func IsApprox(n MethodName) bool {
	switch n {
	case Exact1, Exact2, Exact3:
		return false
	}
	return true
}

// DefaultTargetR is the breakpoint budget r a build aims for when
// neither Epsilon nor TargetR is set: 500, the paper's default.
const DefaultTargetR = 500

// Config carries the build-time knobs shared by all methods.
type Config struct {
	// BlockSize is the device page size (default 4096, the paper's
	// TPIE block size).
	BlockSize int
	// KMax bounds the k of future queries on approximate methods
	// (default 200, the paper's default).
	KMax int
	// Epsilon is the approximation parameter; if 0, TargetR drives ε.
	Epsilon float64
	// TargetR aims for approximately this many breakpoints (default
	// DefaultTargetR; used when Epsilon == 0).
	TargetR int
	// CacheBlocks, when > 0, wraps the device in a write-through buffer
	// pool (a CLOCK read cache) of that many pages.
	CacheBlocks int
	// NewDevice overrides device creation (default: in-memory device).
	NewDevice func(blockSize int) (blockio.Device, error)
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = blockio.DefaultBlockSize
	}
	if c.KMax <= 0 {
		c.KMax = 200
	}
	if c.TargetR <= 0 {
		c.TargetR = DefaultTargetR
	}
	if c.NewDevice == nil {
		c.NewDevice = func(bs int) (blockio.Device, error) { return blockio.NewMemDevice(bs), nil }
	}
	return c
}

func (c Config) device() (blockio.Device, error) {
	dev, err := c.NewDevice(c.BlockSize)
	if err != nil {
		return nil, err
	}
	if c.CacheBlocks > 0 {
		return blockio.NewBufferPool(dev, c.CacheBlocks), nil
	}
	return dev, nil
}

// breaksFor builds the breakpoint set demanded by the method kind.
func (c Config) breaksFor(ds *tsdata.Dataset, kind approx.Kind) (*breakpoint.Set, error) {
	if c.Epsilon > 0 {
		if kind == approx.KindB1 {
			return breakpoint.Build1(ds, c.Epsilon)
		}
		return breakpoint.Build2(ds, c.Epsilon)
	}
	if kind == approx.KindB1 {
		return breakpoint.Build1(ds, breakpoint.EpsilonForR1(c.TargetR))
	}
	return breakpoint.Build2WithTargetR(ds, c.TargetR, true)
}

// Build constructs the named method over the dataset.
func Build(name MethodName, ds *tsdata.Dataset, cfg Config) (exact.Method, error) {
	cfg = cfg.withDefaults()
	dev, err := cfg.device()
	if err != nil {
		return nil, err
	}
	switch name {
	case Exact1:
		return exact.BuildExact1(dev, ds)
	case Exact2:
		return exact.BuildExact2(dev, ds)
	case Exact3:
		return exact.BuildExact3(dev, ds)
	case Appx1B, Appx1:
		kind := approx.KindB2
		if name == Appx1B {
			kind = approx.KindB1
		}
		bps, err := cfg.breaksFor(ds, kind)
		if err != nil {
			return nil, err
		}
		return approx.NewAppx1WithBreaks(dev, ds, kind, bps, cfg.KMax)
	case Appx2B, Appx2:
		kind := approx.KindB2
		if name == Appx2B {
			kind = approx.KindB1
		}
		bps, err := cfg.breaksFor(ds, kind)
		if err != nil {
			return nil, err
		}
		return approx.NewAppx2WithBreaks(dev, ds, kind, bps, cfg.KMax)
	case Appx2P:
		bps, err := cfg.breaksFor(ds, approx.KindB2)
		if err != nil {
			return nil, err
		}
		return approx.NewAppx2PlusWithBreaks(dev, ds, approx.KindB2, bps, cfg.KMax)
	default:
		return nil, fmt.Errorf("core: unknown method %q", name)
	}
}

// BuildResult is a method with its construction measurements.
type BuildResult struct {
	Method     exact.Method
	BuildTime  time.Duration
	IndexPages int
	IndexBytes int64
	BuildIOs   blockio.Stats
}

// BuildMeasured builds the method and records construction cost.
func BuildMeasured(name MethodName, ds *tsdata.Dataset, cfg Config) (*BuildResult, error) {
	start := time.Now()
	m, err := Build(name, ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: build %s: %w", name, err)
	}
	elapsed := time.Since(start)
	bs := m.Device().BlockSize()
	return &BuildResult{
		Method:     m,
		BuildTime:  elapsed,
		IndexPages: m.IndexPages(),
		IndexBytes: int64(m.IndexPages()) * int64(bs),
		BuildIOs:   m.Device().Stats(),
	}, nil
}

// QueryStats captures one measured query.
type QueryStats struct {
	Items   []topk.Item
	Elapsed time.Duration
	// IOs is the query's own page reads: queries never write.
	IOs uint64
}

// MeasureQuery runs one top-k query and counts its own IOs, so queries
// measured at once on one device do not count each other's reads.
func MeasureQuery(m exact.Method, k int, t1, t2 float64) (*QueryStats, error) {
	start := time.Now()
	items, ios, err := m.TopKIOs(k, t1, t2)
	if err != nil {
		return nil, fmt.Errorf("core: query %s: %w", m.Name(), err)
	}
	return &QueryStats{Items: items, Elapsed: time.Since(start), IOs: ios}, nil
}

// Reference computes exact ground truth from the in-memory dataset
// (used for quality metrics; independent of any index).
func Reference(ds *tsdata.Dataset, k int, t1, t2 float64) []topk.Item {
	c := topk.GetCollector(k)
	defer c.Release()
	for _, s := range ds.AllSeries() {
		c.Add(s.ID, s.Range(t1, t2))
	}
	return c.Results()
}
