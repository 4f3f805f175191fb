package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"battsched/internal/dvs"
	"battsched/internal/priority"
)

// refSorter is the stable (value, EDF position, node) sort that choose used
// before it selected candidates by linear scans; kept only as a reference.
type refSorter []candidateRef

func (s refSorter) Len() int      { return len(s) }
func (s refSorter) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s refSorter) Less(i, j int) bool {
	a, b := s[i], s[j]
	if a.value != b.value {
		return a.value < b.value
	}
	if a.cand.EDFPosition != b.cand.EDFPosition {
		return a.cand.EDFPosition < b.cand.EDFPosition
	}
	return a.cand.Node < b.cand.Node
}

// chooseSortedReference is choose as it was with sort.Stable: score every
// candidate in list order, sort, and take the first imminent or feasible one.
func chooseSortedReference(e *engine, cands []candidateRef, effFreq float64) *candidateRef {
	e.prioCtx = priority.Context{Now: e.now, CurrentFrequency: effFreq, FMax: e.fmax, Rand: e.rng}
	for i := range cands {
		cands[i].value = e.cfg.Priority.Priority(cands[i].cand, &e.prioCtx)
	}
	sort.Stable(refSorter(cands))
	for i, c := range cands {
		if c.imminent {
			return &cands[i]
		}
		if feasible(c.cand.RemainingWCET, c.cand.EDFPosition, e.views, e.now, effFreq) {
			e.res.OutOfOrderExecutions++
			return &cands[i]
		}
		e.res.FeasibilityRejections++
	}
	for i, c := range cands {
		if c.imminent {
			return &cands[i]
		}
	}
	return &cands[0]
}

// tablePriority returns a preset value per (EDF position, node).
type tablePriority map[[2]int]float64

func (tablePriority) Name() string { return "table" }
func (p tablePriority) Priority(c priority.Candidate, _ *priority.Context) float64 {
	return p[[2]int{c.EDFPosition, c.Node}]
}

// randomChoice builds one decision: EDF-ordered views, a shuffled candidate
// list drawn from them and a priority table. Values are often exactly tied:
// pUBS's no-reduction value 1e30 + xk rounds to 1e30 for every tgff WCET, and
// a few small values repeat. noImminent drops the imminent instance's
// candidates, reaching choose's defensive fallback.
func randomChoice(rng *rand.Rand, noImminent bool) (now float64, views []dvs.InstanceView, cands []candidateRef, table tablePriority, effFreq float64) {
	const fmax = 1e9
	now = rng.Float64()
	nInst := 1 + rng.Intn(6)
	imminentPos := rng.Intn(nInst) // earlier instances are complete
	views = make([]dvs.InstanceView, nInst)
	insts := make([]*instance, nInst)
	deadline := now
	for pos := range views {
		deadline += 0.05 * rng.Float64()
		views[pos] = dvs.InstanceView{GraphIndex: pos, AbsoluteDeadline: deadline}
		if pos >= imminentPos {
			views[pos].RemainingWorstCase = 20e6 * rng.Float64()
		}
		insts[pos] = &instance{graphIndex: pos, deadline: deadline}
	}
	table = tablePriority{}
	for pos := imminentPos; pos < nInst; pos++ {
		if pos == imminentPos && noImminent {
			continue
		}
		nodes := 1 + rng.Intn(5)
		if pos > imminentPos {
			nodes = rng.Intn(5)
		}
		for _, node := range rng.Perm(15)[:nodes] {
			wcet := 1e6 + 9e6*rng.Float64()
			var v float64
			switch r := rng.Float64(); {
			case r < 0.4:
				v = 1e30 + wcet
			case r < 0.6:
				v = float64(1 + rng.Intn(3))
			case r < 0.65:
				v = math.MaxFloat64
			default:
				v = wcet / (1 + rng.Float64())
			}
			table[[2]int{pos, node}] = v
			cands = append(cands, candidateRef{
				inst:     insts[pos],
				imminent: pos == imminentPos,
				cand: priority.Candidate{
					GraphIndex:       pos,
					Node:             node,
					RemainingWCET:    wcet,
					AbsoluteDeadline: views[pos].AbsoluteDeadline,
					EDFPosition:      pos,
				},
			})
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	effFreq = fmax * (0.2 + 0.8*rng.Float64())
	return now, views, cands, table, effFreq
}

// TestChooseMatchesSortedReference checks that selecting candidates by
// repeated linear scans visits them exactly as the stable sort did: the same
// candidate and the same out-of-order and rejection counts, over seeded
// random decisions with exact value ties, with a priority table and with the
// RNG-drawing Random policy.
func TestChooseMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Decisions with 2+ candidates on the 1e30 plateau, out-of-order picks,
	// rejections, and decisions that rejected every candidate.
	var ties, outOfOrder, rejections, fallbacks int
	for trial := 0; trial < 5000; trial++ {
		noImminent := trial%50 == 49
		now, views, cands, table, effFreq := randomChoice(rng, noImminent)
		if len(cands) == 0 {
			continue
		}
		useRandom := trial%4 == 3
		var prio priority.Function = table
		if useRandom {
			prio = priority.NewRandom()
		}
		seed := rng.Int63()
		run := func(choose func(*engine, []candidateRef, float64) *candidateRef) (*candidateRef, Result) {
			e := &engine{
				cfg:   Config{Priority: prio},
				fmax:  1e9,
				rng:   rand.New(rand.NewSource(seed)),
				now:   now,
				views: views,
				res:   &Result{},
			}
			c := choose(e, append([]candidateRef(nil), cands...), effFreq)
			return c, *e.res
		}
		want, wantRes := run(chooseSortedReference)
		got, gotRes := run((*engine).choose)
		if got.inst != want.inst || got.cand.Node != want.cand.Node || got.value != want.value {
			t.Fatalf("trial %d: chose (pos %d, node %d, value %g), reference chose (pos %d, node %d, value %g)",
				trial, got.cand.EDFPosition, got.cand.Node, got.value, want.cand.EDFPosition, want.cand.Node, want.value)
		}
		if gotRes.OutOfOrderExecutions != wantRes.OutOfOrderExecutions || gotRes.FeasibilityRejections != wantRes.FeasibilityRejections {
			t.Fatalf("trial %d: out-of-order %d, rejections %d; reference %d, %d", trial,
				gotRes.OutOfOrderExecutions, gotRes.FeasibilityRejections, wantRes.OutOfOrderExecutions, wantRes.FeasibilityRejections)
		}
		if !useRandom {
			plateau := 0
			for _, c := range cands {
				if table[[2]int{c.cand.EDFPosition, c.cand.Node}] == 1e30 {
					plateau++
				}
			}
			if plateau >= 2 {
				ties++
			}
		}
		outOfOrder += wantRes.OutOfOrderExecutions
		rejections += wantRes.FeasibilityRejections
		if wantRes.FeasibilityRejections == len(cands) {
			fallbacks++
		}
	}
	// The generator must reach the paths the reference pins.
	if ties == 0 || outOfOrder == 0 || rejections == 0 || fallbacks == 0 {
		t.Fatalf("weak generator: %d plateau decisions, %d out-of-order, %d rejections, %d fallbacks", ties, outOfOrder, rejections, fallbacks)
	}
}

// frequencyAfterCopyReference is evalFrequencyAfter as it was before it
// edited the views in place or queried a plan: the hypothetical state is a
// full copy, and the DVS algorithm selects its frequency afresh.
func frequencyAfterCopyReference(e *engine, c priority.Candidate, assumedCycles float64) float64 {
	hyp := append([]dvs.InstanceView(nil), e.views...)
	if c.EDFPosition >= 0 && c.EDFPosition < len(hyp) {
		v := hyp[c.EDFPosition]
		v.AdjustedWCET = v.AdjustedWCET - c.RemainingWCET + assumedCycles
		if v.AdjustedWCET < 0 {
			v.AdjustedWCET = 0
		}
		v.RemainingWorstCase -= c.RemainingWCET
		if v.RemainingWorstCase < 0 {
			v.RemainingWorstCase = 0
		}
		hyp[c.EDFPosition] = v
	}
	then := e.now
	if e.fAfterFreq > 0 {
		then += assumedCycles / e.fAfterFreq
	}
	return e.cfg.DVS.SelectFrequency(then, e.fmax, hyp)
}

// TestFrequencyAfterInPlaceMatchesCopy checks that the pUBS look-ahead
// returns bit for bit the frequency of the copying one, for every DVS
// algorithm: laEDF's query of the decision's plan and the other algorithms'
// in-place edit, which must leave the views exactly as it found them.
func TestFrequencyAfterInPlaceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	algs := []dvs.Algorithm{dvs.NewLAEDF(), dvs.NewCCEDF(), dvs.NewStatic(), dvs.NewNoDVS()}
	for trial := 0; trial < 2000; trial++ {
		now, views, cands, _, effFreq := randomChoice(rng, false)
		for pos := range views {
			views[pos].Period = 0.05 + 0.35*rng.Float64()
			views[pos].TotalWCET = 20e6 + 20e6*rng.Float64()
			views[pos].AdjustedWCET = views[pos].TotalWCET * rng.Float64()
		}
		before := append([]dvs.InstanceView(nil), views...)
		e := &engine{
			cfg:        Config{DVS: algs[trial%len(algs)]},
			fmax:       1e9,
			now:        now,
			views:      views,
			fAfterFreq: effFreq,
		}
		_, e.planned = e.cfg.DVS.(dvs.LAEDF)
		if want, got := e.cfg.DVS.SelectFrequency(now, e.fmax, views), e.selectFrequency(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d, %s: decision frequency %v, SelectFrequency %v", trial, e.cfg.DVS.Name(), got, want)
		}
		if trial%10 == 9 {
			e.fAfterFreq = 0
		}
		for _, ref := range cands {
			c := ref.cand
			if trial%7 == 6 {
				c.EDFPosition = len(views) // no view to edit
			}
			assumed := c.RemainingWCET * (0.2 + 0.8*rng.Float64())
			want := frequencyAfterCopyReference(e, c, assumed)
			got := e.evalFrequencyAfter(c, assumed)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %s: frequency %v, copying reference %v", trial, e.cfg.DVS.Name(), got, want)
			}
			for i := range views {
				if views[i] != before[i] {
					t.Fatalf("trial %d: view %d not restored: %+v, was %+v", trial, i, views[i], before[i])
				}
			}
		}
	}
}
