// Package optimal provides the single-task-graph scheduling machinery behind
// the paper's Table 1: given one DAG of tasks sharing a deadline and the
// greedy speed-rescaling execution model of Gruian's UBS (before every task
// the speed is set to remaining-worst-case-work / time-to-deadline), it can
//
//   - evaluate the energy of any given execution order (EvaluateOrder),
//   - build an order greedily with any priority function (GreedyOrder), and
//   - find the energy-optimal order by exhaustive search over the DAG's
//     linear extensions with branch-and-bound pruning (OptimalOrder), which
//     is the baseline the paper normalises Table 1 against.
//
// Energy uses the idealised convex power model P(f) ∝ f^PowerExponent (the
// default exponent 3 matches the paper's s³ battery-current scaling), so
// energies are reported in arbitrary units and are meaningful as ratios.
package optimal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"battsched/internal/priority"
	"battsched/internal/taskgraph"
)

// Params configure the single-graph execution model.
type Params struct {
	// Deadline is the common absolute deadline of all tasks (seconds,
	// relative to a release at time zero).
	Deadline float64
	// FMax is the maximum processor frequency in Hz.
	FMax float64
	// FMin, when positive, is a lower clamp on the execution frequency.
	FMin float64
	// PowerExponent is the exponent of the convex power model P ∝ f^k
	// (default 3).
	PowerExponent float64
	// Actuals are the actual execution requirements per node in cycles
	// (indexed by NodeID). Nil means every node takes its WCET.
	Actuals []float64
}

// Errors returned by the package.
var (
	ErrBadParams    = errors.New("optimal: invalid parameters")
	ErrBadOrder     = errors.New("optimal: order is not a linear extension of the graph")
	ErrSearchBudget = errors.New("optimal: search budget exhausted before completing the enumeration")
)

// Evaluation is the outcome of executing one order.
type Evaluation struct {
	// Order is the executed order of node IDs.
	Order []taskgraph.NodeID
	// Energy is the consumed energy in arbitrary (consistent) units.
	Energy float64
	// Makespan is the completion time of the last task in seconds.
	Makespan float64
	// Feasible reports whether the order finished by the deadline.
	Feasible bool
}

func (p Params) withDefaults() Params {
	if p.PowerExponent <= 0 {
		p.PowerExponent = 3
	}
	return p
}

func (p Params) validate(g *taskgraph.Graph) error {
	if g == nil || g.NumNodes() == 0 {
		return fmt.Errorf("%w: empty graph", ErrBadParams)
	}
	if p.Deadline <= 0 || p.FMax <= 0 {
		return fmt.Errorf("%w: deadline=%v fmax=%v", ErrBadParams, p.Deadline, p.FMax)
	}
	if p.FMin < 0 || p.FMin > p.FMax {
		return fmt.Errorf("%w: fmin=%v", ErrBadParams, p.FMin)
	}
	if p.Actuals != nil && len(p.Actuals) != g.NumNodes() {
		return fmt.Errorf("%w: %d actuals for %d nodes", ErrBadParams, len(p.Actuals), g.NumNodes())
	}
	return nil
}

// actual returns the actual cycles of node id under p.
func (p Params) actual(g *taskgraph.Graph, id taskgraph.NodeID) float64 {
	if p.Actuals == nil {
		return g.Nodes[id].WCET
	}
	a := p.Actuals[id]
	if a <= 0 {
		return g.Nodes[id].WCET
	}
	if a > g.Nodes[id].WCET {
		return g.Nodes[id].WCET
	}
	return a
}

// clampSpeed limits s to [FMin, FMax] (ignoring FMin when zero).
func (p Params) clampSpeed(s float64) float64 {
	if s > p.FMax {
		return p.FMax
	}
	if p.FMin > 0 && s < p.FMin {
		return p.FMin
	}
	if s < 0 {
		return 0
	}
	return s
}

// stepEnergy returns the energy of executing `cycles` at speed s under the
// convex power model.
func (p Params) stepEnergy(s, cycles float64) float64 {
	if s <= 0 {
		return 0
	}
	return math.Pow(s/p.FMax, p.PowerExponent-1) * cycles
}

// EvaluateOrder simulates the execution of the graph in the given order under
// the greedy speed-rescaling model and returns its energy and makespan. The
// order must be a linear extension of the graph.
func EvaluateOrder(g *taskgraph.Graph, order []taskgraph.NodeID, params Params) (Evaluation, error) {
	params = params.withDefaults()
	if err := params.validate(g); err != nil {
		return Evaluation{}, err
	}
	if !g.IsLinearExtension(order) {
		return Evaluation{}, ErrBadOrder
	}
	remWC := g.TotalWCET()
	t := 0.0
	energy := 0.0
	for _, id := range order {
		s := params.clampSpeed(remWC / math.Max(params.Deadline-t, 1e-12))
		if s <= 0 {
			s = params.FMax
		}
		ac := params.actual(g, id)
		t += ac / s
		energy += params.stepEnergy(s, ac)
		remWC -= g.Nodes[id].WCET
		if remWC < 0 {
			remWC = 0
		}
	}
	return Evaluation{
		Order:    append([]taskgraph.NodeID(nil), order...),
		Energy:   energy,
		Makespan: t,
		Feasible: t <= params.Deadline+1e-9,
	}, nil
}

// GreedyOrder builds an execution order by repeatedly applying the priority
// function to the set of ready (precedence-satisfied) tasks, exactly as the
// paper's methodology does within a single task graph, and evaluates it.
//
// estimates supplies the X_k values handed to the priority function (indexed
// by NodeID); nil uses the actual requirements (a perfect estimator). rng is
// only needed for the Random priority function.
func GreedyOrder(g *taskgraph.Graph, prio priority.Function, params Params, estimates []float64, rng *rand.Rand) (Evaluation, error) {
	params = params.withDefaults()
	if err := params.validate(g); err != nil {
		return Evaluation{}, err
	}
	if prio == nil {
		prio = priority.NewFIFO()
	}
	if estimates != nil && len(estimates) != g.NumNodes() {
		return Evaluation{}, fmt.Errorf("%w: %d estimates for %d nodes", ErrBadParams, len(estimates), g.NumNodes())
	}
	n := g.NumNodes()
	predsLeft := make([]int, n)
	for i := 0; i < n; i++ {
		predsLeft[i] = len(g.Predecessors(taskgraph.NodeID(i)))
	}
	done := make([]bool, n)
	order := make([]taskgraph.NodeID, 0, n)
	remWC := g.TotalWCET()
	t := 0.0

	estimate := func(id taskgraph.NodeID) float64 {
		if estimates != nil && estimates[id] > 0 {
			return math.Min(estimates[id], g.Nodes[id].WCET)
		}
		return params.actual(g, id)
	}

	for len(order) < n {
		so := params.clampSpeed(remWC / math.Max(params.Deadline-t, 1e-12))
		if so <= 0 {
			so = params.FMax
		}
		ctx := &priority.Context{
			Now:              t,
			CurrentFrequency: so,
			FMax:             params.FMax,
			Rand:             rng,
			FrequencyAfter: func(c priority.Candidate, assumedCycles float64) float64 {
				remAfter := remWC - c.RemainingWCET
				if remAfter < 0 {
					remAfter = 0
				}
				tAfter := t + assumedCycles/so
				return params.clampSpeed(remAfter / math.Max(params.Deadline-tAfter, 1e-12))
			},
		}
		bestIdx := -1
		bestVal := math.Inf(1)
		for i := 0; i < n; i++ {
			if done[i] || predsLeft[i] > 0 {
				continue
			}
			id := taskgraph.NodeID(i)
			c := priority.Candidate{
				GraphIndex:       0,
				Node:             i,
				RemainingWCET:    g.Nodes[i].WCET,
				EstimatedActual:  estimate(id),
				AbsoluteDeadline: params.Deadline,
				EDFPosition:      0,
			}
			v := prio.Priority(c, ctx)
			if v < bestVal || (v == bestVal && (bestIdx == -1 || i < bestIdx)) {
				bestVal = v
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			return Evaluation{}, fmt.Errorf("optimal: no ready task (graph not a DAG?)")
		}
		id := taskgraph.NodeID(bestIdx)
		ac := params.actual(g, id)
		t += ac / so
		remWC -= g.Nodes[id].WCET
		if remWC < 0 {
			remWC = 0
		}
		done[bestIdx] = true
		for _, s := range g.Successors(id) {
			predsLeft[s]--
		}
		order = append(order, id)
	}
	return EvaluateOrder(g, order, params)
}

// SearchResult is the outcome of an exhaustive search.
type SearchResult struct {
	// Best is the lowest-energy evaluation found.
	Best Evaluation
	// ExtensionsVisited is the number of complete linear extensions evaluated.
	ExtensionsVisited int
	// Complete reports whether the search enumerated (or safely pruned) the
	// whole space; false means the expansion budget ran out first.
	Complete bool
}

// OptimalOrder finds the energy-minimal linear extension of the graph under
// the greedy speed-rescaling model by depth-first enumeration with
// branch-and-bound pruning (partial energy is a lower bound because energies
// only accumulate). maxExpansions bounds the number of search-tree node
// expansions; 0 selects a default of 5 million. If the budget runs out the
// best order found so far is returned together with ErrSearchBudget.
func OptimalOrder(g *taskgraph.Graph, params Params, maxExpansions int) (SearchResult, error) {
	params = params.withDefaults()
	if err := params.validate(g); err != nil {
		return SearchResult{}, err
	}
	if maxExpansions <= 0 {
		maxExpansions = 5_000_000
	}
	n := g.NumNodes()
	predsLeft := make([]int, n)
	for i := 0; i < n; i++ {
		predsLeft[i] = len(g.Predecessors(taskgraph.NodeID(i)))
	}
	done := make([]bool, n)
	order := make([]taskgraph.NodeID, 0, n)

	res := SearchResult{Complete: true}
	res.Best.Energy = math.Inf(1)
	expansions := 0

	var dfs func(t, remWC, energy float64)
	dfs = func(t, remWC, energy float64) {
		if expansions >= maxExpansions {
			res.Complete = false
			return
		}
		expansions++
		if energy >= res.Best.Energy {
			return // branch-and-bound: energy only grows along a branch
		}
		if len(order) == n {
			res.ExtensionsVisited++
			res.Best = Evaluation{
				Order:    append([]taskgraph.NodeID(nil), order...),
				Energy:   energy,
				Makespan: t,
				Feasible: t <= params.Deadline+1e-9,
			}
			return
		}
		for i := 0; i < n; i++ {
			if done[i] || predsLeft[i] > 0 {
				continue
			}
			id := taskgraph.NodeID(i)
			s := params.clampSpeed(remWC / math.Max(params.Deadline-t, 1e-12))
			if s <= 0 {
				s = params.FMax
			}
			ac := params.actual(g, id)
			newT := t + ac/s
			newEnergy := energy + params.stepEnergy(s, ac)
			newRem := remWC - g.Nodes[id].WCET
			if newRem < 0 {
				newRem = 0
			}
			done[i] = true
			order = append(order, id)
			for _, su := range g.Successors(id) {
				predsLeft[su]--
			}
			dfs(newT, newRem, newEnergy)
			for _, su := range g.Successors(id) {
				predsLeft[su]++
			}
			order = order[:len(order)-1]
			done[i] = false
			if expansions >= maxExpansions {
				res.Complete = false
				return
			}
		}
	}
	dfs(0, g.TotalWCET(), 0)

	if math.IsInf(res.Best.Energy, 1) {
		return res, fmt.Errorf("optimal: no complete order found within the budget: %w", ErrSearchBudget)
	}
	if !res.Complete {
		return res, ErrSearchBudget
	}
	return res, nil
}

// RandomOrder builds a uniformly random linear extension (by repeatedly
// picking a random ready task) and evaluates it. It is the "Random" column of
// Table 1.
func RandomOrder(g *taskgraph.Graph, params Params, rng *rand.Rand) (Evaluation, error) {
	if rng == nil {
		return Evaluation{}, fmt.Errorf("%w: nil RNG", ErrBadParams)
	}
	return GreedyOrder(g, priority.NewRandom(), params, nil, rng)
}
