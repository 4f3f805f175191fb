package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// summarize is the two-pass batch reference the accumulator is checked
// against.
func summarize(xs []float64) Summary {
	lo, hi, sum := xs[0], xs[0], 0.0
	for _, x := range xs {
		lo, hi, sum = min(lo, x), max(hi, x), sum+x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	var sd float64
	if len(xs) > 1 {
		sd = math.Sqrt(ss / float64(len(xs)-1))
	}
	return Summary{N: len(xs), Mean: mean, StdDev: sd, Min: lo, Max: hi, CI95: ci95(len(xs), sd)}
}

// accumulate adds xs to a fresh Accumulator.
func accumulate(xs ...float64) *Accumulator {
	acc := new(Accumulator)
	for _, x := range xs {
		acc.Add(x)
	}
	return acc
}

func TestBasicStatistics(t *testing.T) {
	s := accumulate(2, 4, 4, 4, 5, 5, 7, 9).Summary()
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("N/Mean = %v/%v", s.N, s.Mean)
	}
	if math.Abs(s.StdDev-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev, math.Sqrt(32.0/7.0))
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSingleValueVarianceIsZero(t *testing.T) {
	acc := accumulate(42)
	if s := acc.Summary(); acc.StdDev() != 0 || s.StdDev != 0 || s.CI95 != 0 {
		t.Fatalf("single-value summary = %+v", s)
	}
}

func TestSummarize(t *testing.T) {
	s := accumulate(1, 2, 3, 4, 5).Summary()
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.CI95 <= 0 {
		t.Fatalf("CI95 = %v, want > 0", s.CI95)
	}
	if one := accumulate(9).Summary(); one.CI95 != 0 || one.StdDev != 0 {
		t.Fatalf("single-sample summary = %+v", one)
	}
}

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {9, 2.262}, {29, 2.045}, {30, 2.042},
		{40, 2.021}, {60, 2.000}, {120, 1.980},
		// Beyond the table the value interpolates in 1/df toward z = 1.960:
		// 1.960 + 0.020*120/df.
		{121, 1.960 + 0.020*120.0/121}, {240, 1.970}, {1200, 1.962},
	}
	for _, c := range cases {
		if got := TCritical95(c.df); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("TCritical95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if !math.IsInf(TCritical95(0), 1) {
		t.Errorf("TCritical95(0) = %v, want +Inf", TCritical95(0))
	}
	// Interpolated values must lie strictly between the bracketing entries
	// and decrease monotonically, including past the table edge.
	prev := TCritical95(30)
	for df := 31; df <= 2000; df++ {
		got := TCritical95(df)
		if got > prev+1e-12 || got < 1.960-1e-12 {
			t.Fatalf("TCritical95(%d) = %v not monotone (prev %v)", df, got, prev)
		}
		prev = got
	}
}

func TestCI95UsesStudentT(t *testing.T) {
	// n=5 → df=4 → t=2.776; the old normal approximation used 1.96.
	s := accumulate(1, 2, 3, 4, 5).Summary()
	want := 2.776 * s.StdDev / math.Sqrt(5)
	if math.Abs(s.CI95-want) > 1e-12 {
		t.Fatalf("CI95 = %v, want t-based %v", s.CI95, want)
	}
}

func TestRelCI95(t *testing.T) {
	s := Summary{Mean: 10, CI95: 0.5}
	if got := s.RelCI95(); math.Abs(got-0.05) > 1e-15 {
		t.Fatalf("RelCI95 = %v, want 0.05", got)
	}
	if got := (Summary{Mean: 0, CI95: 1}).RelCI95(); !math.IsInf(got, 1) {
		t.Fatalf("RelCI95 zero-mean = %v, want +Inf", got)
	}
	if got := (Summary{}).RelCI95(); got != 0 {
		t.Fatalf("RelCI95 empty = %v, want 0", got)
	}
	var acc Accumulator
	for _, x := range []float64{9, 10, 11} {
		acc.Add(x)
	}
	if got, want := acc.RelCI95(), acc.Summary().RelCI95(); got != want {
		t.Fatalf("Accumulator.RelCI95 = %v, want %v", got, want)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	xs := []float64{3.5, -1, 2, 8, 0.25, 7, 7, -2.5}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	batch, got := summarize(xs), acc.Summary()
	if got.N != batch.N {
		t.Fatalf("N = %d, want %d", got.N, batch.N)
	}
	if math.Abs(got.Mean-batch.Mean) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got.Mean, batch.Mean)
	}
	if math.Abs(got.StdDev-batch.StdDev) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", got.StdDev, batch.StdDev)
	}
	if got.Min != batch.Min || got.Max != batch.Max {
		t.Fatalf("Min/Max = %v/%v, want %v/%v", got.Min, got.Max, batch.Min, batch.Max)
	}
	if math.Abs(got.CI95-batch.CI95) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", got.CI95, batch.CI95)
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var acc Accumulator
	if acc.N() != 0 || acc.Summary().Mean != 0 || acc.StdDev() != 0 {
		t.Fatalf("empty accumulator = %+v", acc.Summary())
	}
	acc.Add(5)
	if acc.N() != 1 || acc.Summary().Mean != 5 || acc.StdDev() != 0 {
		t.Fatalf("single accumulator = %+v", acc.Summary())
	}
}

// Property: the accumulator's mean always lies within [min, max] of the
// values added, and matches the batch mean.
func TestAccumulatorProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			clean = append(clean, math.Mod(x, 1e6))
		}
		if len(clean) == 0 {
			return true
		}
		var acc Accumulator
		for _, x := range clean {
			acc.Add(x)
		}
		batch, mean := summarize(clean), acc.Summary().Mean
		tol := 1e-9 * math.Max(1, math.Abs(batch.Mean))
		return math.Abs(mean-batch.Mean) <= tol && mean >= batch.Min-tol && mean <= batch.Max+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStateJSONRoundTrip checks that export -> JSON -> import preserves the
// accumulator exactly: encoding/json emits the shortest float64 representation
// that parses back to the identical bits, so n, mean and variance survive
// bit-for-bit and a re-imported accumulator keeps accumulating as if it had
// never been serialised.
func TestStateJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a Accumulator
	for i := 0; i < 137; i++ {
		a.Add(rng.NormFloat64()*1e3 + 17)
	}
	blob, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var s State
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	if s != a.State() {
		t.Fatalf("state changed across JSON round-trip:\n%+v\n%+v", s, a.State())
	}
	b := FromState(s)
	if b.N() != a.N() || b.Summary().Mean != a.Summary().Mean || b.StdDev() != a.StdDev() || b.Summary() != a.Summary() {
		t.Fatalf("re-imported accumulator differs:\n%+v\n%+v", b.Summary(), a.Summary())
	}
	// Continuing to accumulate must be bit-identical to the original.
	a.Add(42.5)
	b.Add(42.5)
	if a.State() != b.State() {
		t.Fatalf("post-import Add diverged:\n%+v\n%+v", a.State(), b.State())
	}
}
