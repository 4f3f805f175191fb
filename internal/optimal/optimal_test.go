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
	for _, tc := range invalidInputs() {
		if ev, err := EvaluateOrder(tc.g, []taskgraph.NodeID{0, 1}, tc.p); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: EvaluateOrder = %+v, %v; want ErrBadParams", tc.name, ev, err)
		}
	}
	// The ordering model never reads the graph's period.
	noPeriod := taskgraph.NewGraph("no period", 0)
	noPeriod.AddNode("a", fmaxHz)
	if _, err := EvaluateOrder(noPeriod, []taskgraph.NodeID{0}, Params{Deadline: 10, FMax: fmaxHz}); err != nil {
		t.Fatalf("graph without a period: %v", err)
	}
}

type invalidInput struct {
	name string
	g    *taskgraph.Graph
	p    Params
}

// invalidInputs are two-node inputs that every entry point must reject with
// ErrBadParams instead of evaluating them: a cycle, an edge naming an unknown
// node, a WCET that is not positive and finite, and non-finite parameters or
// actuals. Evaluated, they give NaN, zero or negative energies, or are
// silently reread (an infinite actual as the WCET, the edge as absent).
func invalidInputs() []invalidInput {
	twoNodes := func(w0, w1 float64) *taskgraph.Graph {
		g := taskgraph.NewGraph("two", 10)
		g.AddNode("a", w0)
		g.AddNode("b", w1)
		return g
	}
	cycle := twoNodes(fmaxHz, fmaxHz)
	cycle.AddEdge(0, 1)
	cycle.AddEdge(1, 0)
	unknown := twoNodes(fmaxHz, fmaxHz)
	unknown.AddEdge(0, 5)
	ok := Params{Deadline: 10, FMax: fmaxHz}
	with := func(edit func(*Params)) Params {
		p := ok
		p.Actuals = []float64{0.5 * fmaxHz, 0.5 * fmaxHz}
		edit(&p)
		return p
	}
	nan, inf := math.NaN(), math.Inf(1)
	return []invalidInput{
		{"cycle", cycle, ok},
		{"edge to an unknown node", unknown, ok},
		{"zero WCET", twoNodes(0, fmaxHz), ok},
		{"negative WCET", twoNodes(0, -fmaxHz), ok},
		{"NaN WCET", twoNodes(nan, fmaxHz), ok},
		{"infinite WCET", twoNodes(inf, fmaxHz), ok},
		{"NaN deadline", twoNodes(fmaxHz, fmaxHz), with(func(p *Params) { p.Deadline = nan })},
		{"infinite deadline", twoNodes(fmaxHz, fmaxHz), with(func(p *Params) { p.Deadline = inf })},
		{"NaN fmax", twoNodes(fmaxHz, fmaxHz), with(func(p *Params) { p.FMax = nan })},
		{"infinite fmax", twoNodes(fmaxHz, fmaxHz), with(func(p *Params) { p.FMax = inf })},
		{"NaN exponent", twoNodes(fmaxHz, fmaxHz), with(func(p *Params) { p.PowerExponent = nan })},
		{"infinite exponent", twoNodes(fmaxHz, fmaxHz), with(func(p *Params) { p.PowerExponent = inf })},
		{"NaN actual", twoNodes(fmaxHz, fmaxHz), with(func(p *Params) { p.Actuals[0] = nan })},
		{"infinite actual", twoNodes(fmaxHz, fmaxHz), with(func(p *Params) { p.Actuals[1] = inf })},
		{"negative infinite actual", twoNodes(fmaxHz, fmaxHz), with(func(p *Params) { p.Actuals[1] = -inf })},
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
	for _, tc := range invalidInputs() {
		if ev, err := GreedyOrder(tc.g, priority.NewFIFO(), tc.p, nil, nil); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: GreedyOrder = %+v, %v; want ErrBadParams", tc.name, ev, err)
		}
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
		opt, err := OptimalOrder(g, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !g.IsLinearExtension(opt.Order) {
			t.Fatalf("trial %d: optimal order invalid", trial)
		}
		for _, prio := range []priority.Function{priority.NewPUBS(), priority.NewLTF(), priority.NewSTF(), priority.NewFIFO()} {
			ev, err := GreedyOrder(g, prio, p, nil, nil)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, prio.Name(), err)
			}
			if ev.Energy < opt.Energy-1e-6 {
				t.Fatalf("trial %d: %s beat the optimum (%v < %v)", trial, prio.Name(), ev.Energy, opt.Energy)
			}
		}
		rnd, err := RandomOrder(g, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if rnd.Energy < opt.Energy-1e-6 {
			t.Fatalf("trial %d: random beat the optimum", trial)
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
		opt, err := OptimalOrder(g, p)
		if err != nil {
			t.Fatal(err)
		}
		pubs, err := GreedyOrder(g, priority.NewPUBS(), p, actuals, nil)
		if err != nil {
			t.Fatal(err)
		}
		ratioSum += pubs.Energy / opt.Energy
	}
	avg := ratioSum / trials
	if avg > 1.05 {
		t.Fatalf("pUBS with accurate estimates averages %.3f x optimal, want <= 1.05", avg)
	}
}

func TestOptimalOrderSizeLimit(t *testing.T) {
	edgeless := func(n int) *taskgraph.Graph {
		g := taskgraph.NewGraph("edgeless", 0)
		for i := 0; i < n; i++ {
			g.AddNode("", fmaxHz)
		}
		return g
	}
	// 65 nodes do not fit the programme's 64-bit sets, even as a chain.
	chain := edgeless(65)
	for i := 1; i < 65; i++ {
		chain.AddEdge(taskgraph.NodeID(i-1), taskgraph.NodeID(i))
	}
	if _, err := OptimalOrder(chain, Params{Deadline: 100, FMax: fmaxHz}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("65-node chain: err = %v, want ErrTooLarge", err)
	}
	// 21 independent tasks have 2^21 order ideals, twice maxIdeals.
	if _, err := OptimalOrder(edgeless(21), Params{Deadline: 100, FMax: fmaxHz}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("21 independent tasks: err = %v, want ErrTooLarge", err)
	}
	// A 64-node chain has 65 order ideals and fits.
	chain64 := edgeless(64)
	for i := 1; i < 64; i++ {
		chain64.AddEdge(taskgraph.NodeID(i-1), taskgraph.NodeID(i))
	}
	ev, err := OptimalOrder(chain64, Params{Deadline: 100, FMax: fmaxHz})
	if err != nil || !chain64.IsLinearExtension(ev.Order) {
		t.Fatalf("64-node chain: %+v, %v", ev, err)
	}
}

func TestOptimalOrderValidation(t *testing.T) {
	if _, err := OptimalOrder(nil, Params{Deadline: 1, FMax: 1}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("nil graph err = %v", err)
	}
	for _, tc := range invalidInputs() {
		if ev, err := OptimalOrder(tc.g, tc.p); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: OptimalOrder = %+v, %v; want ErrBadParams", tc.name, ev, err)
		}
	}
	// Above a worst-case load of 1 the first speed clamps at FMax and the
	// programme would no longer be exact.
	overloaded := defaultParams(0.5, 0.5)
	overloaded.Deadline = 9.99
	if ev, err := OptimalOrder(figure4Graph(), overloaded); !errors.Is(err, ErrBadParams) {
		t.Fatalf("overloaded graph: %+v, %v; want ErrBadParams", ev, err)
	}
	// A deadline computed for a load of exactly 1 may read a few ulps above
	// it, as Table 1's does at -utilization 1; that is accepted.
	g := figure4Graph()
	g.Nodes[0].WCET = 4.1 * fmaxHz
	atOne := defaultParams(0.5, 0.5)
	atOne.Deadline = g.TotalWCET() / fmaxHz
	for g.TotalWCET()/(fmaxHz*atOne.Deadline) <= 1 {
		atOne.Deadline = math.Nextafter(atOne.Deadline, 0)
	}
	if _, err := OptimalOrder(g, atOne); err != nil {
		t.Fatalf("load %v: %v", g.TotalWCET()/(fmaxHz*atOne.Deadline), err)
	}
}

// referenceOrder is the depth-first branch-and-bound over the graph's linear
// extensions that OptimalOrder's programme replaced, kept as its reference.
// It accumulates each order's energy with EvaluateOrder's arithmetic and
// prunes a branch once its partial energy reaches the best complete one
// (energies only accumulate), so among equal energies the first order in
// depth-first order, lowest node ID first, wins. complete is false when
// maxExpansions search-tree expansions ran out first; best is then the
// lowest energy found.
func referenceOrder(g *taskgraph.Graph, params Params, maxExpansions int) (best Evaluation, complete bool) {
	params = params.withDefaults()
	n := g.NumNodes()
	predsLeft := make([]int, n)
	for i := 0; i < n; i++ {
		predsLeft[i] = len(g.Predecessors(taskgraph.NodeID(i)))
	}
	done := make([]bool, n)
	order := make([]taskgraph.NodeID, 0, n)
	best.Energy = math.Inf(1)
	complete = true
	expansions := 0

	var dfs func(t, remWC, energy float64)
	dfs = func(t, remWC, energy float64) {
		if expansions >= maxExpansions {
			complete = false
			return
		}
		expansions++
		if energy >= best.Energy {
			return
		}
		if len(order) == n {
			best = Evaluation{
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
			newRem := remWC - g.Nodes[id].WCET
			if newRem < 0 {
				newRem = 0
			}
			done[i] = true
			order = append(order, id)
			for _, su := range g.Successors(id) {
				predsLeft[su]--
			}
			dfs(t+ac/s, newRem, energy+params.stepEnergy(s, ac))
			for _, su := range g.Successors(id) {
				predsLeft[su]++
			}
			order = order[:len(order)-1]
			done[i] = false
			if !complete {
				return
			}
		}
	}
	dfs(0, g.TotalWCET(), 0)
	return best, complete
}

// decodeInstance turns bytes into a DAG of at most maxNodes nodes, read as a
// node count, a worst-case load in (0, 1], one WCET per node in [0.5, 1.5]
// seconds at FMax, one actual per node in (0, WCET] (WCET itself from byte
// 127 up, so random bytes make half the tasks run their worst case) and one
// byte per node pair i < j, an edge i→j when it is 0 mod 4. Missing bytes
// read as 0.
func decodeInstance(data []byte, maxNodes int) (*taskgraph.Graph, Params) {
	next := func() float64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return float64(b)
	}
	n := 1 + int(next())%maxNodes
	load := (1 + next()) / 256
	g := taskgraph.NewGraph("decoded", 0)
	for i := 0; i < n; i++ {
		g.AddNode("", (0.5+next()/255)*fmaxHz)
	}
	actuals := make([]float64, n)
	for i := range actuals {
		actuals[i] = math.Min(1, (1+next())/128) * g.Nodes[i].WCET
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if int(next())%4 == 0 {
				g.AddEdge(taskgraph.NodeID(i), taskgraph.NodeID(j))
			}
		}
	}
	deadline := g.TotalWCET() / (fmaxHz * load)
	return g, Params{Deadline: deadline, FMax: fmaxHz, Actuals: actuals}
}

// checkAgainstReference fails t unless OptimalOrder returns a linear
// extension whose energy is within 1e-12 relative of the branch-and-bound's
// and not below it. It reports whether the reference completed within
// maxExpansions. Bit-equality is not required: where tasks run their worst
// case, orders tie in exact arithmetic and the two may pick different ones
// that differ in the last ulps.
func checkAgainstReference(t *testing.T, g *taskgraph.Graph, p Params, maxExpansions int) (*Evaluation, bool) {
	t.Helper()
	opt, err := OptimalOrder(g, p)
	if err != nil {
		t.Fatalf("OptimalOrder: %v", err)
	}
	if !g.IsLinearExtension(opt.Order) {
		t.Fatalf("order %v is not a linear extension", opt.Order)
	}
	ref, complete := referenceOrder(g, p, maxExpansions)
	if !complete {
		return &opt, false
	}
	if opt.Energy < ref.Energy || opt.Energy-ref.Energy > 1e-12*ref.Energy {
		t.Fatalf("programme %v (order %v), reference %v (order %v)", opt.Energy, opt.Order, ref.Energy, ref.Order)
	}
	return &opt, true
}

// TestOptimalOrderMatchesReference runs random DAGs of up to 10 nodes at a
// worst-case load of at most 1 through the programme and the test-only
// branch-and-bound.
func TestOptimalOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	data := make([]byte, 2+10+10+45)
	const dags = 1000
	complete := 0
	for i := 0; i < dags; i++ {
		rng.Read(data)
		g, p := decodeInstance(data, 10)
		if _, ok := checkAgainstReference(t, g, p, 2_000_000); ok {
			complete++
		}
	}
	if complete < dags*9/10 {
		t.Fatalf("the reference completed on %d of %d DAGs", complete, dags)
	}
}

// FuzzOptimalOrder checks, on DAGs of at most 8 nodes, that OptimalOrder
// returns a linear extension that no greedy order beats by more than 1e-12
// relative and that agrees with the branch-and-bound reference.
func FuzzOptimalOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 255, 0, 255, 30, 90})                     // Figure 4's shape
	f.Add([]byte{7, 178, 10, 200, 40, 90, 250, 120, 60, 255}) // 8 nodes, a chain
	f.Add([]byte{7, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 9, 200, 9, 200, 9, 200, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p := decodeInstance(data, 8)
		opt, complete := checkAgainstReference(t, g, p, 10_000_000)
		if !complete {
			t.Fatal("the reference did not complete on 8 nodes")
		}
		for _, prio := range []priority.Function{priority.NewFIFO(), priority.NewLTF(), priority.NewSTF(), priority.NewPUBS()} {
			ev, err := GreedyOrder(g, prio, p, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", prio.Name(), err)
			}
			if ev.Energy < opt.Energy*(1-1e-12) {
				t.Fatalf("%s order %v: %v, below the optimum %v", prio.Name(), ev.Order, ev.Energy, opt.Energy)
			}
		}
	})
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
		opt, err := OptimalOrder(g, p)
		if err != nil {
			return false
		}
		ev, err := GreedyOrder(g, priority.NewPUBS(), p, nil, nil)
		if err != nil {
			return false
		}
		return ev.Energy >= opt.Energy-1e-6 && ev.Feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
