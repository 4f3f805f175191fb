// Ordering example: the paper's Figure 4 motivational example. Two tasks with
// worst-case requirements 4 and 6 (time units at f_max) share a deadline of
// 10. Depending on how much of the worst case each task actually uses, either
// Shortest-Task-First or Largest-Task-First recovers more slack — while the
// pUBS priority function picks the better order in both cases, matching the
// optimum.
package main

import (
	"fmt"
	"log"

	"battsched"
)

const fmax = 1e9

func evaluateCase(name string, actualFrac1, actualFrac2 float64) {
	g := battsched.NewGraph("fig4", 10)
	g.AddNode("task1", 4*fmax) // wc = 4 time units at f_max
	g.AddNode("task2", 6*fmax) // wc = 6 time units at f_max
	params := battsched.OrderingParams{
		Deadline: 10,
		FMax:     fmax,
		Actuals:  []float64{actualFrac1 * 4 * fmax, actualFrac2 * 6 * fmax},
	}

	stfFirst, err := battsched.EvaluateOrder(g, []battsched.NodeID{0, 1}, params)
	if err != nil {
		log.Fatal(err)
	}
	ltfFirst, err := battsched.EvaluateOrder(g, []battsched.NodeID{1, 0}, params)
	if err != nil {
		log.Fatal(err)
	}
	pubs, err := battsched.GreedyOrder(g, battsched.NewPUBS(), params, params.Actuals, nil)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := battsched.OptimalOrder(g, params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s (actuals %.0f%% and %.0f%% of WCET)\n", name, actualFrac1*100, actualFrac2*100)
	fmt.Printf("  STF order  (task1 first): energy %.3f (x%.3f of optimal)\n", stfFirst.Energy/1e9, stfFirst.Energy/opt.Energy)
	fmt.Printf("  LTF order  (task2 first): energy %.3f (x%.3f of optimal)\n", ltfFirst.Energy/1e9, ltfFirst.Energy/opt.Energy)
	fmt.Printf("  pUBS greedy order %v:  energy %.3f (x%.3f of optimal)\n", pubs.Order, pubs.Energy/1e9, pubs.Energy/opt.Energy)
	fmt.Printf("  optimal order %v\n\n", opt.Order)
}

func main() {
	fmt.Println("Figure 4 of the paper: the best execution order depends on where the slack is.")
	fmt.Println()
	// Case 1: task1 uses 40% of its WCET, task2 uses 60% -> STF recovers more slack.
	evaluateCase("Case 1", 0.4, 0.6)
	// Case 2: task1 uses 60% of its WCET, task2 uses 40% -> LTF recovers more slack.
	evaluateCase("Case 2", 0.6, 0.4)
}
