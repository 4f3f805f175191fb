package optimal

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"battsched/internal/priority"
	"battsched/internal/taskgraph"
)

const fmaxHz = 1e9

// figure4Graph is the paper's Figure 4 motivational example: two independent
// tasks with WCETs 4 and 6 (here in seconds-at-fmax, converted to cycles)
// sharing a deadline of 10.
func figure4Graph() *taskgraph.Graph {
	g := taskgraph.NewGraph("fig4", 10)
	g.AddNode("task1", 4*fmaxHz)
	g.AddNode("task2", 6*fmaxHz)
	return g
}

func defaultParams(actualFrac1, actualFrac2 float64) Params {
	return Params{
		Deadline: 10,
		FMax:     fmaxHz,
		Actuals:  []float64{actualFrac1 * 4 * fmaxHz, actualFrac2 * 6 * fmaxHz},
	}
}

func TestEvaluateOrderValidation(t *testing.T) {
	g := figure4Graph()
	if _, err := EvaluateOrder(g, []taskgraph.NodeID{0, 1}, Params{}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad params err = %v", err)
	}
	p := defaultParams(1, 1)
	if _, err := EvaluateOrder(g, []taskgraph.NodeID{0}, p); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("short order err = %v", err)
	}
	if _, err := EvaluateOrder(nil, nil, p); !errors.Is(err, ErrBadParams) {
		t.Fatalf("nil graph err = %v", err)
	}
	bad := p
	bad.Actuals = []float64{1}
	if _, err := EvaluateOrder(g, []taskgraph.NodeID{0, 1}, bad); !errors.Is(err, ErrBadParams) {
		t.Fatalf("wrong actuals length err = %v", err)
	}
	// Precedence violation.
	chain := taskgraph.NewGraph("c", 10)
	chain.AddNode("a", fmaxHz)
	chain.AddNode("b", fmaxHz)
	chain.AddEdge(0, 1)
	if _, err := EvaluateOrder(chain, []taskgraph.NodeID{1, 0}, Params{Deadline: 10, FMax: fmaxHz}); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("precedence violation err = %v", err)
	}
}

func TestEvaluateOrderWorstCaseRunsAtConstantSpeed(t *testing.T) {
	// With actual = WCET the greedy rescaling keeps the speed constant at
	// totalWC/D for every task, and the makespan equals the deadline.
	g := figure4Graph()
	p := Params{Deadline: 10, FMax: fmaxHz}
	ev, err := EvaluateOrder(g, []taskgraph.NodeID{0, 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Fatal("worst-case order must be feasible")
	}
	if math.Abs(ev.Makespan-10) > 1e-9 {
		t.Fatalf("makespan = %v, want 10", ev.Makespan)
	}
	// Energy = sum s^2*ac with s = 1 GHz * 10/10... speed = (10e9 cycles)/(10 s) = 1e9.
	want := math.Pow(1.0, 2)*4*fmaxHz + math.Pow(1.0, 2)*6*fmaxHz
	if math.Abs(ev.Energy-want) > 1e-3 {
		t.Fatalf("energy = %v, want %v", ev.Energy, want)
	}
	// Order independence under worst case.
	ev2, err := EvaluateOrder(g, []taskgraph.NodeID{1, 0}, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.Energy-ev2.Energy) > 1e-6 {
		t.Fatalf("worst-case energy should not depend on order: %v vs %v", ev.Energy, ev2.Energy)
	}
}

func TestFigure4Case1ShortestTaskFirstWins(t *testing.T) {
	// Case 1 of Figure 4: actuals are 40% and 60% of the WCETs. Executing
	// task1 (the shorter WCET) first recovers more slack.
	g := figure4Graph()
	p := defaultParams(0.4, 0.6)
	stfFirst, err := EvaluateOrder(g, []taskgraph.NodeID{0, 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	ltfFirst, err := EvaluateOrder(g, []taskgraph.NodeID{1, 0}, p)
	if err != nil {
		t.Fatal(err)
	}
	if stfFirst.Energy >= ltfFirst.Energy {
		t.Fatalf("case 1: STF order should win (%v vs %v)", stfFirst.Energy, ltfFirst.Energy)
	}
	// And the pUBS greedy picks the winning order.
	pubs, err := GreedyOrder(g, priority.NewPUBS(), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pubs.Energy-stfFirst.Energy) > 1e-6 {
		t.Fatalf("pUBS energy = %v, want the STF-first energy %v", pubs.Energy, stfFirst.Energy)
	}
}

func TestFigure4Case2LargestTaskFirstWins(t *testing.T) {
	// Case 2 of Figure 4: actuals are 60% and 40% of the WCETs; now the
	// larger task reveals more slack and should go first.
	g := figure4Graph()
	p := defaultParams(0.6, 0.4)
	stfFirst, err := EvaluateOrder(g, []taskgraph.NodeID{0, 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	ltfFirst, err := EvaluateOrder(g, []taskgraph.NodeID{1, 0}, p)
	if err != nil {
		t.Fatal(err)
	}
	if ltfFirst.Energy >= stfFirst.Energy {
		t.Fatalf("case 2: LTF order should win (%v vs %v)", ltfFirst.Energy, stfFirst.Energy)
	}
	pubs, err := GreedyOrder(g, priority.NewPUBS(), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pubs.Energy-ltfFirst.Energy) > 1e-6 {
		t.Fatalf("pUBS energy = %v, want the LTF-first energy %v", pubs.Energy, ltfFirst.Energy)
	}
}

func TestGreedyOrderRespectsPrecedence(t *testing.T) {
	g := taskgraph.NewGraph("diamond", 10)
	a := g.AddNode("a", 2*fmaxHz)
	b := g.AddNode("b", 2*fmaxHz)
	c := g.AddNode("c", 2*fmaxHz)
	d := g.AddNode("d", 2*fmaxHz)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	for _, prio := range []priority.Function{priority.NewPUBS(), priority.NewLTF(), priority.NewSTF(), priority.NewFIFO()} {
		ev, err := GreedyOrder(g, prio, Params{Deadline: 10, FMax: fmaxHz}, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", prio.Name(), err)
		}
		if !g.IsLinearExtension(ev.Order) {
			t.Fatalf("%s: order %v violates precedence", prio.Name(), ev.Order)
		}
		if !ev.Feasible {
			t.Fatalf("%s: infeasible", prio.Name())
		}
	}
}

func TestGreedyOrderValidation(t *testing.T) {
	g := figure4Graph()
	if _, err := GreedyOrder(g, nil, Params{}, nil, nil); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad params err = %v", err)
	}
	if _, err := GreedyOrder(g, nil, defaultParams(1, 1), []float64{1}, nil); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad estimates err = %v", err)
	}
	// nil priority falls back to FIFO.
	if _, err := GreedyOrder(g, nil, defaultParams(1, 1), nil, nil); err != nil {
		t.Fatalf("nil priority err = %v", err)
	}
}

func TestRandomOrderRequiresRNG(t *testing.T) {
	g := figure4Graph()
	if _, err := RandomOrder(g, defaultParams(1, 1), nil); !errors.Is(err, ErrBadParams) {
		t.Fatalf("err = %v", err)
	}
	ev, err := RandomOrder(g, defaultParams(0.5, 0.5), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Order) != 2 {
		t.Fatalf("order = %v", ev.Order)
	}
}

func TestOptimalOrderIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(4)
		g := taskgraph.NewGraph("t", 10)
		for i := 0; i < n; i++ {
			g.AddNode("", (0.5+rng.Float64())*fmaxHz)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(taskgraph.NodeID(i), taskgraph.NodeID(j))
				}
			}
		}
		actuals := make([]float64, n)
		for i := range actuals {
			actuals[i] = (0.2 + 0.8*rng.Float64()) * g.Nodes[i].WCET
		}
		p := Params{Deadline: 10, FMax: fmaxHz, Actuals: actuals}
		opt, err := OptimalOrder(g, p, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !opt.Complete || opt.ExtensionsVisited < 1 {
			t.Fatalf("trial %d: incomplete search %+v", trial, opt)
		}
		if !g.IsLinearExtension(opt.Best.Order) {
			t.Fatalf("trial %d: optimal order invalid", trial)
		}
		for _, prio := range []priority.Function{priority.NewPUBS(), priority.NewLTF(), priority.NewSTF(), priority.NewFIFO()} {
			ev, err := GreedyOrder(g, prio, p, nil, nil)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, prio.Name(), err)
			}
			if ev.Energy < opt.Best.Energy-1e-6 {
				t.Fatalf("trial %d: %s beat the exhaustive optimum (%v < %v)", trial, prio.Name(), ev.Energy, opt.Best.Energy)
			}
		}
		rnd, err := RandomOrder(g, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if rnd.Energy < opt.Best.Energy-1e-6 {
			t.Fatalf("trial %d: random beat the exhaustive optimum", trial)
		}
	}
}

func TestPUBSWithAccurateEstimatesIsNearOptimal(t *testing.T) {
	// The paper (citing Gruian) claims pUBS with accurate estimates is within
	// about 1% of optimal for independent tasks with a common deadline. Allow
	// a small margin over a set of random instances.
	rng := rand.New(rand.NewSource(7))
	var ratioSum float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		n := 5 + rng.Intn(4)
		g := taskgraph.NewGraph("t", 10)
		for i := 0; i < n; i++ {
			g.AddNode("", (0.2+rng.Float64())*fmaxHz)
		}
		actuals := make([]float64, n)
		for i := range actuals {
			actuals[i] = (0.2 + 0.8*rng.Float64()) * g.Nodes[i].WCET
		}
		p := Params{Deadline: 10, FMax: fmaxHz, Actuals: actuals}
		opt, err := OptimalOrder(g, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		pubs, err := GreedyOrder(g, priority.NewPUBS(), p, actuals, nil)
		if err != nil {
			t.Fatal(err)
		}
		ratioSum += pubs.Energy / opt.Best.Energy
	}
	avg := ratioSum / trials
	if avg > 1.05 {
		t.Fatalf("pUBS with accurate estimates averages %.3f x optimal, want <= 1.05", avg)
	}
}

func TestOptimalOrderBudget(t *testing.T) {
	// A 9-node independent graph has 9! extensions; with a tiny budget the
	// search must return ErrSearchBudget but still produce a valid order.
	g := taskgraph.NewGraph("big", 10)
	for i := 0; i < 9; i++ {
		g.AddNode("", fmaxHz)
	}
	res, err := OptimalOrder(g, Params{Deadline: 100, FMax: fmaxHz}, 500)
	if !errors.Is(err, ErrSearchBudget) {
		t.Fatalf("err = %v, want ErrSearchBudget", err)
	}
	if res.Complete {
		t.Fatal("search reported complete despite exhausted budget")
	}
	if len(res.Best.Order) != 9 || !g.IsLinearExtension(res.Best.Order) {
		t.Fatalf("best order invalid: %v", res.Best.Order)
	}
}

func TestOptimalOrderValidation(t *testing.T) {
	if _, err := OptimalOrder(nil, Params{Deadline: 1, FMax: 1}, 0); !errors.Is(err, ErrBadParams) {
		t.Fatalf("nil graph err = %v", err)
	}
}

func TestClampSpeedAndStepEnergy(t *testing.T) {
	p := Params{Deadline: 1, FMax: 10, PowerExponent: 3}
	if p.clampSpeed(50) != 10 || p.clampSpeed(5) != 5 {
		t.Fatal("clampSpeed wrong")
	}
	if p.clampSpeed(-1) != 0 {
		t.Fatal("negative speed not clamped to 0")
	}
	if p.stepEnergy(0, 100) != 0 {
		t.Fatal("zero-speed energy should be 0")
	}
	// Energy at half speed with exponent 3 is (1/2)^2 per cycle.
	if math.Abs(p.stepEnergy(5, 100)-25) > 1e-9 {
		t.Fatalf("stepEnergy = %v, want 25", p.stepEnergy(5, 100))
	}
}

// Property: the energy of any linear extension is at least the optimal energy
// and at most the worst-case (constant full-utilisation) energy bound.
func TestGreedyNeverBeatsOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		g := taskgraph.NewGraph("p", 10)
		for i := 0; i < n; i++ {
			g.AddNode("", (0.3+rng.Float64()*0.7)*fmaxHz)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 {
					g.AddEdge(taskgraph.NodeID(i), taskgraph.NodeID(j))
				}
			}
		}
		actuals := make([]float64, n)
		for i := range actuals {
			actuals[i] = (0.2 + 0.8*rng.Float64()) * g.Nodes[i].WCET
		}
		p := Params{Deadline: 10, FMax: fmaxHz, Actuals: actuals}
		opt, err := OptimalOrder(g, p, 0)
		if err != nil {
			return false
		}
		ev, err := GreedyOrder(g, priority.NewPUBS(), p, nil, nil)
		if err != nil {
			return false
		}
		return ev.Energy >= opt.Best.Energy-1e-6 && ev.Feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
