package core

import (
	"math"
	"math/rand"
	"testing"

	"battsched/internal/dvs"
	"battsched/internal/priority"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
)

// candidatesFullScan is candidates as it was before instances kept a ready
// set and nodes cached their estimates: every node of every admitted instance
// is scanned, and, when the priority function reads estimates, the estimator
// is asked afresh for each ready one.
func candidatesFullScan(e *engine) []candidateRef {
	readsEstimate := priority.ReadsEstimate(e.cfg.Priority)
	var out []candidateRef
	imminentPos := -1
	for pos, in := range e.released {
		if in.remaining == 0 {
			continue
		}
		if imminentPos < 0 {
			imminentPos = pos
		} else if e.cfg.ReadyPolicy == MostImminentOnly {
			break
		}
		for ni := range in.nodes {
			ns := &in.nodes[ni]
			if ns.done || ns.predsLeft > 0 {
				continue
			}
			var est float64
			if readsEstimate {
				est = estimateAfresh(e, in, ni, ns)
			}
			out = append(out, candidateRef{
				inst:     in,
				imminent: pos == imminentPos,
				cand: priority.Candidate{
					GraphIndex:       in.graphIndex,
					Node:             ni,
					RemainingWCET:    ns.wcRemaining(),
					EstimatedActual:  est,
					AbsoluteDeadline: in.deadline,
					EDFPosition:      pos,
				},
			})
		}
	}
	return out
}

// estimateAfresh is estimateRemaining without the per-node cache.
func estimateAfresh(e *engine, in *instance, ni int, ns *nodeState) float64 {
	if e.cfg.OracleEstimates {
		return math.Max(ns.acRemaining(), cycleEpsilon)
	}
	est := e.cfg.Estimator.Estimate(in.graphIndex, ni, ns.wcet) - ns.executed
	if est < cycleEpsilon {
		est = cycleEpsilon
	}
	if est > ns.wcRemaining() {
		est = math.Max(ns.wcRemaining(), cycleEpsilon)
	}
	return est
}

// viewsRebuilt is the views as the engine rebuilt them from the released
// list at every decision before it kept them in step with that list. Each
// view's remaining worst-case work is a fresh sum over the instance's nodes
// when the DVS algorithm or the AllReleased feasibility check reads it, and
// 0 otherwise.
func viewsRebuilt(e *engine) []dvs.InstanceView {
	readsWork := dvs.ReadsRemainingWork(e.cfg.DVS) || e.cfg.ReadyPolicy == AllReleased
	var views []dvs.InstanceView
	for _, in := range e.released {
		gi := in.graphIndex
		v := in.view(e.sys.Graphs[gi], e.totalWCET[gi])
		v.RemainingWorstCase = 0
		if readsWork {
			v.RemainingWorstCase = in.sumRemainingWC()
		}
		views = append(views, v)
	}
	return views
}

// checkIncrementalState fails unless the engine's views equal the rebuilt
// ones, its candidates equal the full scan's, field by field and bit for
// bit, and its earliest pending release is that of a fresh scan. Under
// laEDF, the engine's plan, brought up to date as the next decision does,
// must also answer every query as a fresh plan of the views does.
func checkIncrementalState(t *testing.T, label string, step int, e *engine) {
	t.Helper()
	if next := e.earliestRelease(); e.nextDue != next {
		t.Fatalf("%s, step %d: earliest release %v, scan %v", label, step, e.nextDue, next)
	}
	want := viewsRebuilt(e)
	if len(e.views) != len(want) {
		t.Fatalf("%s, step %d: %d views for %d released instances", label, step, len(e.views), len(want))
	}
	for i := range want {
		if e.views[i] != want[i] {
			t.Fatalf("%s, step %d: view %d is %+v, rebuilt %+v", label, step, i, e.views[i], want[i])
		}
	}
	wantCands := candidatesFullScan(e)
	got := e.candidates()
	if len(got) != len(wantCands) {
		t.Fatalf("%s, step %d: %d candidates, full scan %d", label, step, len(got), len(wantCands))
	}
	for i := range wantCands {
		g, w := got[i], wantCands[i]
		if g.inst != w.inst || g.imminent != w.imminent || g.cand.GraphIndex != w.cand.GraphIndex ||
			g.cand.Node != w.cand.Node || g.cand.EDFPosition != w.cand.EDFPosition ||
			math.Float64bits(g.cand.RemainingWCET) != math.Float64bits(w.cand.RemainingWCET) ||
			math.Float64bits(g.cand.EstimatedActual) != math.Float64bits(w.cand.EstimatedActual) ||
			math.Float64bits(g.cand.AbsoluteDeadline) != math.Float64bits(w.cand.AbsoluteDeadline) {
			t.Fatalf("%s, step %d: candidate %d is %+v, full scan %+v", label, step, i, g.cand, w.cand)
		}
	}
	if e.planned {
		checkPlanUpToDate(t, label, step, e)
	}
}

// checkPlanUpToDate brings the engine's laEDF plan up to date with its views,
// as the next decision would before anything else moves them (a release or
// retirement then resets the plan anyway), and fails unless its frequency at
// now and its query for every position, with half and none of that view's
// remaining work left, equal bit for bit those of a fresh plan of the views.
func checkPlanUpToDate(t *testing.T, label string, step int, e *engine) {
	t.Helper()
	e.updatePlan()
	var fresh dvs.LAEDFPlan
	fresh.Reset(e.fmax, e.views)
	if got, want := e.plan.Frequency(e.now), fresh.Frequency(e.now); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s, step %d: plan frequency %v, fresh plan %v", label, step, got, want)
	}
	for k, v := range e.views {
		for _, r := range []float64{v.RemainingWorstCase / 2, 0} {
			if got, want := e.plan.FrequencyAfter(e.now, k, r), fresh.FrequencyAfter(e.now, k, r); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s, step %d: plan query for view %d with %v left: %v, fresh plan %v", label, step, k, r, got, want)
			}
		}
	}
}

// TestIncrementalStateMatchesReference drives one engine decision by
// decision and, before the first and after every one, checks the state the
// engine keeps incrementally against a rebuild from scratch: the views kept
// in step with the released list (with their remaining work where a reader
// exists), the ready sets, the cached estimates (where a reader exists), the
// earliest pending release and laEDF's plan, refreshed rather than rebuilt
// at most decisions.
// The systems cover graphs of up to 15 nodes, graphs of 65 to 130 nodes
// (ready sets of two or three words), runs that miss deadlines, where two
// instances of one graph overlap and one's completion invalidates the other's
// cached estimate, and a horizon that is no multiple of the periods, past
// which instances retire with no release beside them.
func TestIncrementalStateMatchesReference(t *testing.T) {
	large := tgff.DefaultConfig()
	large.MinNodes, large.MaxNodes = 65, 130
	large.MinWCET, large.MaxWCET = 0.1e6, 1e6
	type system struct {
		name    string
		cfg     tgff.Config
		seed    int64
		util    float64
		exec    float64 // lower bound of the execution fraction
		horizon float64 // 0: 2 hyperperiods
	}
	systems := []system{
		{"paper", tgff.DefaultConfig(), 50, 0.7, 0.2, 0},
		{"large", large, 51, 0.7, 0.2, 0},
		{"overlapping", tgff.DefaultConfig(), 6, 0.95, 0.999, 0},
		{"cut", tgff.DefaultConfig(), 50, 0.7, 0.2, 0.73},
	}
	schemes := append(reuseSchemes(),
		reuseScheme{name: "ccEDF-pUBS", dvs: dvs.NewCCEDF(), prio: priority.NewPUBS(), policy: AllReleased, modes: []FrequencyMode{DiscreteFrequency}})
	var en Engine
	misses := 0
	for _, s := range systems {
		sys, err := tgff.GenerateSystem(s.cfg, 6, s.util, 1e9, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range schemes {
			for _, mode := range sc.modes {
				for seed := int64(1); seed <= 2; seed++ {
					label := s.name + "/" + sc.name + "/" + mode.String()
					err := en.Reset(Config{
						System:          sys,
						DVS:             sc.dvs,
						Priority:        sc.prio,
						ReadyPolicy:     sc.policy,
						OracleEstimates: sc.oracle,
						FrequencyMode:   mode,
						Execution:       taskgraph.NewUniformExecution(s.exec, 1.0, seed),
						Hyperperiods:    2,
						Horizon:         s.horizon,
						Seed:            seed,
						Observer:        Discard,
					})
					if err != nil {
						t.Fatal(err)
					}
					e := &en.e
					checkIncrementalState(t, label, 0, e)
					for step := 1; e.step(); step++ {
						checkIncrementalState(t, label, step, e)
					}
					misses += e.res.DeadlineMisses
				}
			}
		}
	}
	if misses == 0 {
		t.Fatal("no run missed a deadline, so no two instances of a graph overlapped")
	}
}
