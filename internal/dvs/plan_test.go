package dvs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// laedfReference is LAEDF.SelectFrequency as it was before it became a plan
// evaluated once: a full pass over the views per call. It is kept only as the
// reference the plan is pinned against.
func laedfReference(now, fmax float64, instances []InstanceView) float64 {
	if len(instances) == 0 || fmax <= 0 {
		return 0
	}
	inst := sortEDF(instances)
	dn := inst[0].AbsoluteDeadline
	if dn <= now {
		return fmax
	}
	var u float64
	for _, in := range inst {
		if in.Period > 0 {
			u += in.TotalWCET / (fmax * in.Period)
		}
	}
	s := 0.0
	for i := len(inst) - 1; i >= 0; i-- {
		in := inst[i]
		cLeft := in.RemainingWorstCase / fmax
		if in.Period > 0 {
			u -= in.TotalWCET / (fmax * in.Period)
		}
		slack := in.AbsoluteDeadline - dn
		var x float64
		if slack <= 0 {
			x = cLeft
		} else {
			x = cLeft - (1-u)*slack
			if x < 0 {
				x = 0
			}
			u += (cLeft - x) / slack
		}
		s += x
	}
	return clampFrequency(s/(dn-now)*fmax, fmax)
}

// checkPlan fails unless, bit for bit, the plan of views selects the
// reference's frequency at now, SelectFrequency agrees, and the plan's query
// for position k equals the reference on a copy of views whose view k has
// remaining work left (views unchanged when k is past the last view). It
// then edits the remaining work at k and before it and checks that the
// plan, refreshed from k, answers as a fresh plan of the edited views.
func checkPlan(t *testing.T, p *LAEDFPlan, fmax, now float64, views []InstanceView, k int, remaining float64) {
	t.Helper()
	p.Reset(fmax, views)
	want := laedfReference(now, fmax, views)
	if got := p.Frequency(now); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("plan frequency %v, reference %v (fmax %v, now %v, views %+v)", got, want, fmax, now, views)
	}
	if got := NewLAEDF().SelectFrequency(now, fmax, views); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SelectFrequency %v, reference %v (fmax %v, now %v, views %+v)", got, want, fmax, now, views)
	}
	edited := append([]InstanceView(nil), views...)
	if k < len(edited) {
		edited[k].RemainingWorstCase = remaining
	}
	want = laedfReference(now, fmax, edited)
	if got := p.FrequencyAfter(now, k, remaining); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("plan query for view %d with %v left: %v, reference %v (fmax %v, now %v, views %+v)",
			k, remaining, got, want, fmax, now, views)
	}
	checkRefresh(t, p, fmax, now, views, k, remaining)
}

// checkRefresh edits the remaining work of views at positions up to k (all
// of them when k is past the last view): view k's becomes remaining and
// every earlier one's halves. It then refreshes p, a plan of views, from k
// and fails unless its frequency at now and its query for every position
// (and for none) equal, bit for bit, those of a fresh plan of the edited
// views.
func checkRefresh(t *testing.T, p *LAEDFPlan, fmax, now float64, views []InstanceView, k int, remaining float64) {
	t.Helper()
	edited := append([]InstanceView(nil), views...)
	for i := range edited[:min(k+1, len(edited))] {
		edited[i].RemainingWorstCase /= 2
	}
	if k < len(edited) {
		edited[k].RemainingWorstCase = remaining
	}
	p.Refresh(k, edited)
	var fresh LAEDFPlan
	fresh.Reset(fmax, edited)
	if got, want := p.Frequency(now), fresh.Frequency(now); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("plan refreshed from %d: frequency %v, fresh plan %v (fmax %v, now %v, views %+v)", k, got, want, fmax, now, edited)
	}
	for j := 0; j <= len(edited); j++ {
		r := remaining
		if j < len(edited) {
			r = edited[j].RemainingWorstCase / 3
		}
		if got, want := p.FrequencyAfter(now, j, r), fresh.FrequencyAfter(now, j, r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("plan refreshed from %d: query for view %d with %v left: %v, fresh plan %v (fmax %v, now %v, views %+v)",
				k, j, r, got, want, fmax, now, edited)
		}
	}
}

// TestLAEDFPlanMatchesReference pins the plan against the full pass on
// seeded decisions shaped like the engine's: 1 to 8 views in EDF order,
// completed instances with no work left, some views without a period, and
// times at and past the earliest deadline. It also pins a plan refreshed
// after an edit of the remaining work against a fresh plan of the edited
// views. One plan is reused throughout.
func TestLAEDFPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var p LAEDFPlan
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(8)
		views := make([]InstanceView, n)
		d := rng.Float64()
		for i := range views {
			if rng.Intn(4) > 0 {
				d += 0.1 * rng.Float64() // else a tied deadline
			}
			v := InstanceView{AbsoluteDeadline: d, Period: 0.05 + 0.35*rng.Float64(), TotalWCET: 1e6 + 40e6*rng.Float64()}
			if rng.Intn(10) == 0 {
				v.Period = 0
			}
			if rng.Intn(5) > 0 {
				v.RemainingWorstCase = v.TotalWCET * rng.Float64()
			}
			views[i] = v
		}
		now := views[0].AbsoluteDeadline - 0.1*rng.Float64()
		if rng.Intn(20) == 0 {
			now = views[0].AbsoluteDeadline + 0.01*rng.Float64()
		}
		k := rng.Intn(n + 1)
		remaining := 0.0
		if k < n && rng.Intn(4) > 0 {
			remaining = views[k].RemainingWorstCase * rng.Float64()
		}
		fmax := 1e9
		if trial%500 == 499 {
			fmax = 0
		}
		checkPlan(t, &p, fmax, now, views, k, remaining)
	}
}

// viewBytes is the fuzz encoding of one view: AbsoluteDeadline, Period,
// TotalWCET and RemainingWorstCase as little-endian float64 bits.
const viewBytes = 32

func encodeViews(views []InstanceView) []byte {
	var b []byte
	for _, v := range views {
		for _, f := range []float64{v.AbsoluteDeadline, v.Period, v.TotalWCET, v.RemainingWorstCase} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// FuzzLAEDFLookAhead checks the plan against the full pass for arbitrary
// views: 1 to 8 of them (from data) in EDF order, a time, a position k (a k
// of len(views) edits no view) and the remaining work k is replaced with;
// and a plan refreshed from k after an edit of the remaining work at k and
// before it against a fresh plan of the edited views.
func FuzzLAEDFLookAhead(f *testing.F) {
	two := twoInstances()
	f.Add(encodeViews(two), 0.0, 1e9, uint8(0), 5e6)
	f.Add(encodeViews(two), 0.02, 1e9, uint8(1), 0.0)
	f.Add(encodeViews(two), 0.06, 1e9, uint8(2), 1e6)
	three := append(twoInstances(), InstanceView{AbsoluteDeadline: 0.1, Period: 0.4, TotalWCET: 10e6, RemainingWorstCase: 4e6})
	f.Add(encodeViews(three), 0.01, 1e9, uint8(1), 2e6)
	var p LAEDFPlan
	f.Fuzz(func(t *testing.T, data []byte, now, fmax float64, k uint8, remaining float64) {
		n := min(len(data)/viewBytes, 8)
		if n == 0 {
			return
		}
		views := make([]InstanceView, n)
		for i := range views {
			field := func(j int) float64 {
				return math.Float64frombits(binary.LittleEndian.Uint64(data[i*viewBytes+8*j:]))
			}
			views[i] = InstanceView{AbsoluteDeadline: field(0), Period: field(1), TotalWCET: field(2), RemainingWorstCase: field(3)}
			if i > 0 && views[i].AbsoluteDeadline < views[i-1].AbsoluteDeadline {
				return // not in EDF order
			}
		}
		checkPlan(t, &p, fmax, now, views, int(k)%(n+1), remaining)
	})
}
