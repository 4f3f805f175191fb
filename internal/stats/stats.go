// Package stats provides the online accumulator with which the experiment
// harness aggregates results over many random task-graph sets: mean,
// standard deviation, min/max and Student-t 95 % confidence intervals.
package stats

import "math"

// Summary is the aggregate description of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// CI95 is the half-width of the 95 % confidence interval of the mean,
	// using the Student-t critical value for the sample's degrees of freedom
	// (the normal z≈1.96 understates the interval for small samples, which
	// matters once adaptive stopping keys off it).
	CI95 float64
}

// RelCI95 returns CI95 relative to the magnitude of the mean. A zero mean
// with a non-zero interval reports +Inf (never converged); a zero mean with a
// zero interval reports 0.
func (s Summary) RelCI95() float64 {
	if s.CI95 == 0 {
		return 0
	}
	if s.Mean == 0 {
		return math.Inf(1)
	}
	return s.CI95 / math.Abs(s.Mean)
}

// tCritical975 holds the upper 97.5 % critical values of the Student-t
// distribution for 1..30 degrees of freedom.
var tCritical975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical975Sparse extends the table beyond 30 degrees of freedom;
// intermediate values interpolate linearly in 1/df (the standard textbook
// rule), converging to z = 1.960 in the limit.
var tCritical975Sparse = []struct {
	df int
	t  float64
}{
	{30, 2.042}, {40, 2.021}, {60, 2.000}, {80, 1.990}, {100, 1.984}, {120, 1.980},
}

// TCritical95 returns the two-sided 95 % Student-t critical value for df
// degrees of freedom (df < 1 returns +Inf: no interval exists).
func TCritical95(df int) float64 {
	switch {
	case df < 1:
		return math.Inf(1)
	case df <= len(tCritical975):
		return tCritical975[df-1]
	}
	for i := 1; i < len(tCritical975Sparse); i++ {
		lo, hi := tCritical975Sparse[i-1], tCritical975Sparse[i]
		if df <= hi.df {
			// Interpolate in 1/df between the bracketing table entries.
			x := (1/float64(df) - 1/float64(hi.df)) / (1/float64(lo.df) - 1/float64(hi.df))
			return hi.t + x*(lo.t-hi.t)
		}
	}
	// Beyond the table, keep interpolating in 1/df toward the z = 1.960
	// limit at 1/df = 0 (a hard jump to z at the table edge would
	// discontinuously understate the interval).
	last := tCritical975Sparse[len(tCritical975Sparse)-1]
	return 1.960 + (last.t-1.960)*float64(last.df)/float64(df)
}

// ci95 returns the t-based 95 % half-width for a sample of size n with sample
// standard deviation sd.
func ci95(n int, sd float64) float64 {
	if n < 2 {
		return 0
	}
	return TCritical95(n-1) * sd / math.Sqrt(float64(n))
}

// Accumulator collects values online (Welford's algorithm): the count, mean,
// sum of squared deviations and extrema, without keeping the values.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// State is the serialisable snapshot of an Accumulator: the Welford triple
// (n, mean, M2) plus the running extrema. JSON round-trips are exact —
// encoding/json emits the shortest float64 representation that parses back to
// the identical bits — so an exported State re-imported with FromState behaves
// bit-for-bit like the original accumulator. Experiment report artifacts
// rely on this to move cells between processes.
type State struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State exports the accumulator's serialisable state.
func (a *Accumulator) State() State {
	return State{N: a.n, Mean: a.mean, M2: a.m2, Min: a.min, Max: a.max}
}

// FromState reconstructs an Accumulator from exported state. The result is
// indistinguishable from the accumulator that produced s: subsequent Add
// calls continue bit-for-bit as if the original had kept running.
func FromState(s State) Accumulator {
	return Accumulator{n: s.N, mean: s.Mean, m2: s.M2, min: s.Min, max: s.Max}
}

// N returns the number of observations added.
func (a *Accumulator) N() int { return a.n }

// StdDev returns the running sample standard deviation (0 when n < 2).
func (a *Accumulator) StdDev() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// Summary returns the aggregate description of the accumulated observations.
func (a *Accumulator) Summary() Summary {
	return Summary{N: a.n, Mean: a.mean, StdDev: a.StdDev(), Min: a.min, Max: a.max, CI95: ci95(a.n, a.StdDev())}
}

// RelCI95 returns the t-based CI95 half-width of the accumulated mean,
// relative to the magnitude of the mean (see Summary.RelCI95). Adaptive
// experiment stopping keys off this value.
func (a *Accumulator) RelCI95() float64 { return a.Summary().RelCI95() }
