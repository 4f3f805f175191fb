package priority

import (
	"math"
	"math/rand"
	"testing"
)

// mapHistory is HistoryEstimator as it was with a map keyed by (graph, node),
// kept only as a reference for the dense rows.
type mapHistory struct {
	Alpha           float64
	InitialFraction float64
	hist            map[[2]int]float64
}

func (h *mapHistory) Estimate(graphIndex, nodeID int, wcet float64) float64 {
	if wcet <= 0 {
		return 0
	}
	frac, ok := h.hist[[2]int{graphIndex, nodeID}]
	if !ok {
		frac = h.InitialFraction
		if frac <= 0 || frac > 1 {
			frac = DefaultInitialFraction
		}
	}
	est := frac * wcet
	if est <= 0 {
		est = 1e-9 * wcet
	}
	if est > wcet {
		est = wcet
	}
	return est
}

func (h *mapHistory) Observe(graphIndex, nodeID int, wcet, actual float64) {
	if wcet <= 0 || actual <= 0 {
		return
	}
	frac := actual / wcet
	if frac > 1 {
		frac = 1
	}
	k := [2]int{graphIndex, nodeID}
	if prev, ok := h.hist[k]; ok {
		h.hist[k] = (1-h.Alpha)*prev + h.Alpha*frac
	} else {
		h.hist[k] = frac
	}
}

// observed counts the nodes h holds a ratio for: the entries of its rows
// other than +0.
func observed(h *HistoryEstimator) int {
	n := 0
	for _, row := range h.rows {
		for _, frac := range row {
			if math.Float64bits(frac) != 0 {
				n++
			}
		}
	}
	return n
}

// TestHistoryEstimatorMatchesMapReference drives the dense estimator and the
// map-based reference with the same seeded random Observe, Estimate and Reset
// sequences and requires bit-identical estimates and, at the end of each
// sequence, as many observed nodes in the rows as the map holds (counting
// scans every row, too slow to repeat at every step).
// Ids are dense, sparse, large or negative; values include invalid inputs,
// ratios above 1 and ratios that underflow to zero.
func TestHistoryEstimatorMatchesMapReference(t *testing.T) {
	ids := func(rng *rand.Rand) int {
		switch r := rng.Float64(); {
		case r < 0.5:
			return rng.Intn(16)
		case r < 0.7:
			return rng.Intn(4) * 97 // sparse
		case r < 0.85:
			return 1000 + rng.Intn(3000) // large
		default:
			return -1 - rng.Intn(40) // negative
		}
	}
	value := func(rng *rand.Rand, wcet float64) float64 {
		switch r := rng.Float64(); {
		case r < 0.05:
			return 0
		case r < 0.08:
			return -wcet
		case r < 0.12:
			return 1e-320 // underflows to a zero ratio
		case r < 0.2:
			return wcet * (1 + rng.Float64()) // ratio above 1
		default:
			return wcet * rng.Float64()
		}
	}
	alphas := []float64{0.5, 0.3, 0.9, 1, 1e-300}
	fracs := []float64{DefaultInitialFraction, 0.25, 0, 1.5}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := NewHistoryEstimator(alphas[seed%5])
		got.InitialFraction = fracs[seed%4]
		want := &mapHistory{Alpha: got.Alpha, InitialFraction: got.InitialFraction, hist: map[[2]int]float64{}}
		for op := 0; op < 3000; op++ {
			g, n := ids(rng), ids(rng)
			wcet := 1e6 + 9e6*rng.Float64()
			if rng.Float64() < 0.03 {
				wcet = -wcet * rng.Float64()
			} else if rng.Float64() < 0.03 {
				wcet = 1e300
			}
			switch r := rng.Float64(); {
			case r < 0.5:
				actual := value(rng, wcet)
				got.Observe(g, n, wcet, actual)
				want.Observe(g, n, wcet, actual)
			case r < 0.99:
				if a, b := got.Estimate(g, n, wcet), want.Estimate(g, n, wcet); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d op %d: Estimate(%d, %d, %v) = %v, reference %v", seed, op, g, n, wcet, a, b)
				}
			default:
				got.Reset()
				clear(want.hist)
			}
		}
		if a, b := observed(got), len(want.hist); a != b {
			t.Fatalf("seed %d: finally %d nodes observed, reference %d", seed, a, b)
		}
	}
}
