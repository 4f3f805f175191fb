package core

// GraphStats summarises the behaviour of one task graph across all of its
// instances in a simulation.
type GraphStats struct {
	// GraphIndex and Name identify the graph.
	GraphIndex int
	Name       string
	// Jobs is the number of instances released.
	Jobs int
	// Misses is the number of instances that missed their deadline.
	Misses int
	// MaxResponse and AvgResponse are the worst-case and mean response times
	// (completion time minus release time) of completed instances, in
	// seconds.
	MaxResponse float64
	AvgResponse float64
	// AvgLaxity is the mean remaining time to the deadline at completion, in
	// seconds.
	AvgLaxity float64
}

// graphStatsCollector accumulates per-graph response statistics during a run.
type graphStatsCollector struct {
	stats []GraphStats
	sums  []float64 // response-time sums
	lax   []float64 // laxity sums
	done  []int     // completed instances
}

func newGraphStatsCollector(names []string) *graphStatsCollector {
	c := &graphStatsCollector{
		stats: make([]GraphStats, len(names)),
		sums:  make([]float64, len(names)),
		lax:   make([]float64, len(names)),
		done:  make([]int, len(names)),
	}
	for i, n := range names {
		c.stats[i].GraphIndex = i
		c.stats[i].Name = n
	}
	return c
}

// reset rebinds the collector to names and zeroes all counters, reusing the
// slices when their capacity suffices. Previously finalized GraphStats slices
// alias c.stats and are invalidated by the reuse.
func (c *graphStatsCollector) reset(names []string) {
	n := len(names)
	if cap(c.stats) < n {
		c.stats = make([]GraphStats, n)
		c.sums = make([]float64, n)
		c.lax = make([]float64, n)
		c.done = make([]int, n)
	} else {
		c.stats = c.stats[:n]
		c.sums = c.sums[:n]
		c.lax = c.lax[:n]
		c.done = c.done[:n]
		for i := range c.sums {
			c.stats[i] = GraphStats{}
			c.sums[i] = 0
			c.lax[i] = 0
			c.done[i] = 0
		}
	}
	for i, nm := range names {
		c.stats[i].GraphIndex = i
		c.stats[i].Name = nm
	}
}

// released records one released instance.
func (c *graphStatsCollector) released(graph int) {
	if graph >= 0 && graph < len(c.stats) {
		c.stats[graph].Jobs++
	}
}

// completed records one completed instance.
func (c *graphStatsCollector) completed(graph int, response, laxity float64, missed bool) {
	if graph < 0 || graph >= len(c.stats) {
		return
	}
	s := &c.stats[graph]
	if missed {
		s.Misses++
	}
	if response > s.MaxResponse {
		s.MaxResponse = response
	}
	c.sums[graph] += response
	c.lax[graph] += laxity
	c.done[graph]++
}

// missedWithoutCompletion records an instance flagged as missed before it
// completed (it may still complete later; only the miss is counted here).
func (c *graphStatsCollector) missedWithoutCompletion(graph int) {
	if graph >= 0 && graph < len(c.stats) {
		c.stats[graph].Misses++
	}
}

// finalize computes the averages and returns the per-graph statistics.
func (c *graphStatsCollector) finalize() []GraphStats {
	for i := range c.stats {
		if c.done[i] > 0 {
			c.stats[i].AvgResponse = c.sums[i] / float64(c.done[i])
			c.stats[i].AvgLaxity = c.lax[i] / float64(c.done[i])
		}
	}
	return c.stats
}
