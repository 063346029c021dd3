// Package gen generates the synthetic workloads that stand in for the
// paper's two real datasets (§5):
//
//   - Temp: MesoWest temperature series (m=145,628 station-years,
//     navg=17,833 readings). Our substitute superimposes a seasonal and
//     a diurnal sinusoid with AR(1) noise — smooth, periodic, always
//     positive, like Figure 1 of the paper.
//   - Meme: Memetracker phrase-popularity series (m≈1.5M URLs, navg=67
//     records). Our substitute produces bursty, spiky series: a low
//     baseline punctuated by exponentially decaying spikes, Zipf-like
//     object sizes, and object lifespans scattered across the domain.
//
// Neither real dataset ships with this repository, and their sizes are
// out of reach of a test run, so the generators reproduce the shape
// each method is sensitive to instead: smooth and positive (Temp)
// against bursty and sparse (Meme). Both are deterministic given their
// Seed, and are scaled by (M, Navg) rather than fixed to the paper's
// sizes.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"temporalrank/internal/tsdata"
)

// TempConfig parameterizes the Temp-like generator.
type TempConfig struct {
	M    int   // number of objects (station-years)
	Navg int   // average segments per object
	Seed int64 // RNG seed

	// Span is the temporal domain length (default 365, "days").
	Span float64
	// BaseTemp and SeasonalAmp/DiurnalAmp shape the curve (defaults
	// mimic Fig. 1's 330–400 range in tenths of °F).
	BaseTemp    float64
	SeasonalAmp float64
	DiurnalAmp  float64
	NoiseStd    float64
}

func (c *TempConfig) defaults() {
	if c.Span <= 0 {
		c.Span = 365
	}
	if c.BaseTemp == 0 {
		c.BaseTemp = 365
	}
	if c.SeasonalAmp == 0 {
		c.SeasonalAmp = 25
	}
	if c.DiurnalAmp == 0 {
		c.DiurnalAmp = 8
	}
	if c.NoiseStd == 0 {
		c.NoiseStd = 2
	}
}

// Temp generates a Temp-like dataset.
func Temp(cfg TempConfig) (*tsdata.Dataset, error) {
	cfg.defaults()
	if cfg.M < 1 || cfg.Navg < 1 {
		return nil, fmt.Errorf("gen: Temp needs M >= 1 and Navg >= 1, got M=%d Navg=%d", cfg.M, cfg.Navg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	series := make([]*tsdata.Series, cfg.M)
	for i := 0; i < cfg.M; i++ {
		// Per-station personality.
		n := cfg.Navg/2 + rng.Intn(cfg.Navg) // in [navg/2, 3navg/2)
		if n < 1 {
			n = 1
		}
		base := cfg.BaseTemp + rng.NormFloat64()*10 // climate offset
		seasonPhase := rng.Float64() * 2 * math.Pi
		diurnalPhase := rng.Float64() * 2 * math.Pi
		seasonAmp := cfg.SeasonalAmp * (0.7 + rng.Float64()*0.6)
		diurnalAmp := cfg.DiurnalAmp * (0.7 + rng.Float64()*0.6)

		times := make([]float64, n+1)
		values := make([]float64, n+1)
		// Slightly jittered sampling cadence (stations report at
		// irregular intervals in MesoWest).
		step := cfg.Span / float64(n)
		t := 0.0
		ar := 0.0 // AR(1) noise state
		for j := 0; j <= n; j++ {
			times[j] = t
			season := seasonAmp * math.Sin(2*math.Pi*t/cfg.Span+seasonPhase)
			diurnal := diurnalAmp * math.Sin(2*math.Pi*t+diurnalPhase)
			ar = 0.85*ar + rng.NormFloat64()*cfg.NoiseStd
			v := base + season + diurnal + ar
			if v < 1 {
				v = 1 // temperatures in this encoding stay positive
			}
			values[j] = v
			t += step * (0.5 + rng.Float64())
		}
		s, err := tsdata.NewSeries(tsdata.SeriesID(i), times, values)
		if err != nil {
			return nil, fmt.Errorf("gen: temp series %d: %w", i, err)
		}
		series[i] = s
	}
	return tsdata.NewDataset(series)
}

// MemeConfig parameterizes the Meme-like generator.
type MemeConfig struct {
	M    int // number of objects (phrases/URLs)
	Navg int // average records per object (paper: 67)
	Seed int64

	// Span is the temporal domain length (default 270, "days").
	Span float64
	// Baseline is the quiet-period score; spikes reach up to
	// Baseline*SpikeFactor (defaults 1 and 200).
	Baseline    float64
	SpikeFactor float64
	// SpikeRate is the expected number of bursts per object (default 3).
	SpikeRate float64
}

func (c *MemeConfig) defaults() {
	if c.Span <= 0 {
		c.Span = 270
	}
	if c.Baseline == 0 {
		c.Baseline = 1
	}
	if c.SpikeFactor == 0 {
		c.SpikeFactor = 200
	}
	if c.SpikeRate == 0 {
		c.SpikeRate = 3
	}
}

// Meme generates a Meme-like dataset.
func Meme(cfg MemeConfig) (*tsdata.Dataset, error) {
	cfg.defaults()
	if cfg.M < 1 || cfg.Navg < 1 {
		return nil, fmt.Errorf("gen: Meme needs M >= 1 and Navg >= 1, got M=%d Navg=%d", cfg.M, cfg.Navg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	series := make([]*tsdata.Series, cfg.M)
	for i := 0; i < cfg.M; i++ {
		// Zipf-ish record counts: many short objects, few long ones.
		n := 1 + int(float64(cfg.Navg)*0.3) + int(zipfish(rng)*float64(cfg.Navg))
		// Objects live on random sub-intervals of the domain (phrases
		// appear and die out).
		life := cfg.Span * (0.05 + rng.Float64()*0.6)
		start := rng.Float64() * (cfg.Span - life)

		// Burst schedule: spike onset times and magnitudes.
		numSpikes := poissonish(rng, cfg.SpikeRate)
		type spike struct{ at, mag, decay float64 }
		spikes := make([]spike, numSpikes)
		for s := range spikes {
			spikes[s] = spike{
				at:    start + rng.Float64()*life,
				mag:   cfg.Baseline * cfg.SpikeFactor * math.Pow(rng.Float64(), 2),
				decay: 3 + rng.Float64()*20, // e-folding in days⁻¹ terms
			}
		}

		times := make([]float64, n+1)
		values := make([]float64, n+1)
		step := life / float64(n)
		t := start
		for j := 0; j <= n; j++ {
			times[j] = t
			v := cfg.Baseline * (0.5 + rng.Float64())
			for _, sp := range spikes {
				if t >= sp.at {
					v += sp.mag * math.Exp(-(t-sp.at)*sp.decay/life*float64(n)/10)
				}
			}
			values[j] = v
			t += step * (0.4 + rng.Float64()*1.2)
		}
		s, err := tsdata.NewSeries(tsdata.SeriesID(i), times, values)
		if err != nil {
			return nil, fmt.Errorf("gen: meme series %d: %w", i, err)
		}
		series[i] = s
	}
	return tsdata.NewDataset(series)
}

// zipfish draws from a heavy-tailed [0, ~10] distribution.
func zipfish(rng *rand.Rand) float64 {
	u := rng.Float64()
	return math.Min(10, 0.5/math.Sqrt(u+1e-4)-0.4)
}

// poissonish draws a small Poisson-like count with mean lambda.
func poissonish(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for p > l && k < 50 {
		k++
		p *= rng.Float64()
	}
	return k - 1 + 1 // at least one burst keeps every object rankable
}

// RandomWalkConfig parameterizes a generic random-walk generator used
// by tests that want sign changes (the §4 negative-score extension).
type RandomWalkConfig struct {
	M       int
	Navg    int
	Seed    int64
	Span    float64
	StepStd float64
}

// RandomWalk generates zero-centered random-walk series (negative
// values common).
func RandomWalk(cfg RandomWalkConfig) (*tsdata.Dataset, error) {
	if cfg.Span <= 0 {
		cfg.Span = 100
	}
	if cfg.StepStd == 0 {
		cfg.StepStd = 5
	}
	if cfg.M < 1 || cfg.Navg < 1 {
		return nil, fmt.Errorf("gen: RandomWalk needs M >= 1 and Navg >= 1, got M=%d Navg=%d", cfg.M, cfg.Navg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	series := make([]*tsdata.Series, cfg.M)
	for i := 0; i < cfg.M; i++ {
		n := cfg.Navg/2 + rng.Intn(cfg.Navg)
		if n < 1 {
			n = 1
		}
		times := make([]float64, n+1)
		values := make([]float64, n+1)
		t := rng.Float64() * cfg.Span * 0.05
		v := rng.NormFloat64() * cfg.StepStd
		step := cfg.Span / float64(n)
		for j := 0; j <= n; j++ {
			times[j] = t
			values[j] = v
			t += step * (0.5 + rng.Float64())
			v += rng.NormFloat64() * cfg.StepStd
		}
		s, err := tsdata.NewSeries(tsdata.SeriesID(i), times, values)
		if err != nil {
			return nil, fmt.Errorf("gen: walk series %d: %w", i, err)
		}
		series[i] = s
	}
	return tsdata.NewDataset(series)
}
