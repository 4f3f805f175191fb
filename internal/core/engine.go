package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"battsched/internal/dvs"
	"battsched/internal/obs"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/profile"
	"battsched/internal/taskgraph"
)

// timeEpsilon absorbs floating-point noise when comparing simulation times.
const timeEpsilon = 1e-12

// cycleEpsilon is the threshold below which remaining cycles count as zero.
const cycleEpsilon = 1e-6

// Run executes one scheduling simulation described by cfg and returns its
// Result. It is the main entry point of the package: a one-shot wrapper over
// a fresh Engine, byte-identical to reusing an Engine with the same Config.
func Run(cfg Config) (*Result, error) {
	var en Engine
	if err := en.Reset(cfg); err != nil {
		return nil, err
	}
	return en.Run()
}

// Engine is a reusable scheduling engine. A zero Engine is ready for Reset;
// NewEngine is provided for symmetry. Reset(cfg) followed by Run() produces a
// Result byte-identical to Run(cfg), but every piece of scratch state — the
// EDF-ordered released list, view/candidate/realisation buffers, the instance
// free list, the estimator history rows, the execution model's RNG and the
// per-graph statistics — survives across runs, so steady-state allocations
// drop from ~90 per run to ~1.
//
// Aliasing contract: Result.PerGraph aliases engine-owned storage and
// Result.Profile/Result.Trace alias the observer's storage (when the observer
// is reused across runs, see ProfileRecorder.Reset); both are valid only until
// the next Reset of the engine/observer that produced them. Copy anything that
// must outlive the reuse.
//
// Caching contract: structural validation, graph names and trace labels are
// cached per System pointer (validation also keys on the Processor pointer).
// An Engine therefore assumes a System is immutable while its pointer is being
// reused — mutate a system only by passing a fresh pointer (e.g. a Clone).
//
// An Engine is not safe for concurrent use; the experiment drivers keep one
// per worker job.
type Engine struct {
	e engine

	// Engine-owned reusable defaults for the Config fields withDefaults would
	// otherwise allocate fresh on every Reset.
	hist *priority.HistoryEstimator
	exec *taskgraph.UniformExecution
	proc *processor.Model

	// Validation cache: the (System, Processor) pair that last passed
	// Config.Validate.
	lastSys  *taskgraph.System
	lastProc *processor.Model

	ready bool
}

// NewEngine returns a fresh reusable engine, equivalent to new(Engine).
func NewEngine() *Engine { return &Engine{} }

// Reset prepares the engine to simulate cfg, reusing all scratch state from
// previous runs. It performs the same validation and defaulting as Run, except
// that nil Estimator/Execution/Processor fields are filled with engine-owned
// reusable instances (reset/reseeded to match fresh ones bit-for-bit) and
// structural validation is skipped when the same (System, Processor) pointers
// were already validated by a previous Reset.
func (en *Engine) Reset(cfg Config) error {
	en.ready = false
	if cfg.Processor == nil {
		if en.proc == nil {
			en.proc = processor.Default()
		}
		cfg.Processor = en.proc
	}
	if cfg.Estimator == nil {
		if en.hist == nil {
			en.hist = priority.NewHistoryEstimator(0.5)
		} else {
			en.hist.Reset()
		}
		cfg.Estimator = en.hist
	}
	if cfg.Execution == nil {
		if en.exec == nil {
			en.exec = taskgraph.NewUniformExecution(0.2, 1.0, cfg.Seed)
		} else {
			en.exec.Reseed(cfg.Seed)
		}
		cfg.Execution = en.exec
	}
	if cfg.System != nil && cfg.System == en.lastSys && cfg.Processor == en.lastProc {
		// Already validated this (System, Processor) pair; only the per-run
		// horizon check remains.
		if cfg.Horizon < 0 {
			return ErrBadHorizon
		}
	} else {
		if err := cfg.Validate(); err != nil {
			return err
		}
		en.lastSys, en.lastProc = cfg.System, cfg.Processor
	}
	en.e.reset(cfg.withDefaults())
	en.ready = true
	return nil
}

// Run executes the simulation prepared by the last Reset. It errors unless
// the last Reset succeeded; each Reset admits exactly one Run.
func (en *Engine) Run() (*Result, error) {
	if !en.ready {
		return nil, ErrEngineNotReady
	}
	en.ready = false
	obs.Sim.EngineRuns.Add(1)
	return en.e.run(), nil
}

// nodeState tracks one node of one released instance.
type nodeState struct {
	wcet      float64 // full worst-case cycles
	actual    float64 // drawn actual cycles for this instance
	executed  float64 // cycles executed so far
	estimate  float64 // the Estimator's Estimate, valid while estimated
	predsLeft int
	done      bool
	estimated bool // cleared when any instance's copy of the node is observed
}

func (n *nodeState) wcRemaining() float64 {
	r := n.wcet - n.executed
	if r < 0 {
		return 0
	}
	return r
}

func (n *nodeState) acRemaining() float64 {
	r := n.actual - n.executed
	if r < 0 {
		return 0
	}
	return r
}

// instance is one released job of a task graph.
type instance struct {
	graphIndex  int
	jobIndex    int
	release     float64
	deadline    float64
	nodes       []nodeState
	remaining   int     // nodes not yet done
	adjustedWC  float64 // the paper's WC_i
	remainingWC float64 // sumRemainingWC, refreshed by release and execute while sumsWork; 0 otherwise
	missed      bool

	// ready has bit ni%64 of word ni/64 set while node ni is not done and has
	// no predecessor left. It is readyInline for a graph of up to 64 nodes
	// and readySpill, kept across recycling, for a larger one.
	ready       []uint64
	readyInline [1]uint64
	readySpill  []uint64
}

// setReady marks node ni ready.
func (in *instance) setReady(ni int) { in.ready[ni>>6] |= 1 << (ni & 63) }

// sumRemainingWC returns the worst-case work left in the instance: unfinished
// nodes at their WCET less the cycles already executed.
func (in *instance) sumRemainingWC() float64 {
	var rem float64
	for i := range in.nodes {
		if !in.nodes[i].done {
			rem += in.nodes[i].wcRemaining()
		}
	}
	return rem
}

// view summarises the instance for the DVS algorithm and feasibility check;
// totalWCET is g.TotalWCET(), computed once per Reset.
func (in *instance) view(g *taskgraph.Graph, totalWCET float64) dvs.InstanceView {
	return dvs.InstanceView{
		GraphIndex:         in.graphIndex,
		ReleaseTime:        in.release,
		AbsoluteDeadline:   in.deadline,
		Period:             g.Period,
		TotalWCET:          totalWCET,
		AdjustedWCET:       in.adjustedWC,
		RemainingWorstCase: in.remainingWC,
	}
}

// instanceBefore is the total EDF order of the released list: earliest
// absolute deadline first, ties broken by release time and graph index so the
// order is total and deterministic.
func instanceBefore(a, b *instance) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.release != b.release {
		return a.release < b.release
	}
	return a.graphIndex < b.graphIndex
}

// candidateRef pairs a priority.Candidate with the instance/node it refers to.
type candidateRef struct {
	cand     priority.Candidate
	inst     *instance
	value    float64
	imminent bool // true when the candidate belongs to the earliest-deadline incomplete instance
}

// candidateBefore is the order in which choose visits candidates: smallest
// priority value first, ties broken by EDF position and then node. No two
// candidates share an (EDF position, node) pair, so the order is strict.
func candidateBefore(a, b *candidateRef) bool {
	if a.value != b.value {
		return a.value < b.value
	}
	if a.cand.EDFPosition != b.cand.EDFPosition {
		return a.cand.EDFPosition < b.cand.EDFPosition
	}
	return a.cand.Node < b.cand.Node
}

// engine is the simulation state.
type engine struct {
	cfg   Config
	sys   *taskgraph.System
	fmax  float64
	rng   *rand.Rand
	horiz float64

	now         float64
	nextRelease []float64
	nextDue     float64 // the earliest nextRelease below the horizon, +Inf if none; recomputed by releaseDue
	jobCounter  []int
	released    []*instance        // incrementally maintained in EDF order (instanceBefore)
	views       []dvs.InstanceView // views[i] is released[i]'s view, kept in step with it
	totalWCET   []float64          // per-graph Graph.TotalWCET, computed by reset

	sink   SegmentSink
	charge profile.ChargeAccumulator
	res    *Result
	gstat  *graphStatsCollector

	labels      [][]string // per-(graph, node) labels; nil unless the sink records traces
	labelsCache [][]string // labels built for the current system, kept across resets
	names       []string   // per-graph display names, kept across resets

	// Scratch buffers and pre-bound state reused across scheduling decisions:
	// after warm-up the decision loop allocates nothing.
	candsBuf []candidateRef
	segsBuf  []freqSegment
	realBuf  []processor.RealizationSegment
	prioCtx  priority.Context
	freeList []*instance // retired instances recycled by release

	// rngSrc seeds on its first draw, so runs that never draw (every
	// scheme without the Random priority) skip seeding.
	rngSrc lazySource

	// planned is set when the DVS algorithm is laEDF: each decision then
	// brings plan up to date once, for its frequency and every pUBS
	// look-ahead. planValid is cleared by whatever moves the views (a
	// release, a retirement, a reset), which the next decision answers with
	// a Reset. While it is set, only execute has changed the views since the
	// plan was last brought up to date, and only their remaining work, at
	// EDF positions up to planFrom (-1: none), so the next decision
	// refreshes the plan from planFrom.
	planned   bool
	planValid bool
	planFrom  int
	plan      dvs.LAEDFPlan

	// estimates is set when the priority function reads
	// Candidate.EstimatedActual, and usesEstimator when, besides, the
	// estimates come from the Estimator rather than the oracle: only then
	// does the engine ask the Estimator and feed it. sumsWork is set when
	// the DVS algorithm or the AllReleased feasibility check reads a view's
	// RemainingWorstCase: only then do release and execute sum it.
	estimates, usesEstimator, sumsWork bool

	// frequencyAfter state: the closure is bound once at construction and
	// reads the per-decision effective frequency from fAfterFreq.
	fAfterFreq float64
	fAfterFn   func(priority.Candidate, float64) float64

	lastRunning *instance
	lastNode    int
}

// reset rebinds the engine to cfg (already validated and defaulted), reusing
// every scratch buffer from previous runs. Per-system caches (graph names,
// trace labels) are invalidated only when the System pointer changes; the
// engine keeps the pointer alive, so an unchanged address implies the same
// system.
func (e *engine) reset(cfg Config) {
	sysChanged := e.sys != cfg.System || e.names == nil
	e.cfg = cfg
	e.sys = cfg.System
	e.fmax = cfg.Processor.FMax()
	if e.rng == nil {
		e.rng = rand.New(&e.rngSrc)
	}
	e.rng.Seed(cfg.Seed ^ 0x5eed)
	e.horiz = cfg.horizon()
	_, e.planned = cfg.DVS.(dvs.LAEDF)
	e.planValid = false
	e.estimates = priority.ReadsEstimate(cfg.Priority)
	e.usesEstimator = e.estimates && !cfg.OracleEstimates
	e.sumsWork = dvs.ReadsRemainingWork(cfg.DVS) || cfg.ReadyPolicy == AllReleased

	n := cfg.System.NumGraphs()
	e.nextRelease = resetFloats(e.nextRelease, n)
	e.jobCounter = resetInts(e.jobCounter, n)
	e.totalWCET = resetFloats(e.totalWCET, n)
	for i, g := range cfg.System.Graphs {
		e.totalWCET[i] = g.TotalWCET()
	}
	for i, in := range e.released {
		e.freeList = append(e.freeList, in)
		e.released[i] = nil
	}
	e.released = e.released[:0]
	e.views = e.views[:0]
	e.now = 0
	e.nextDue = e.earliestRelease()
	e.res = &Result{}
	e.charge.Reset()
	e.lastRunning = nil
	e.lastNode = -1

	e.sink = cfg.Observer
	if e.sink == nil {
		e.sink = NewRecorder()
	}
	if sysChanged {
		e.labelsCache = nil
		if cap(e.names) < n {
			e.names = make([]string, n)
		}
		e.names = e.names[:n]
		for i, g := range cfg.System.Graphs {
			e.names[i] = graphLabel(g, i)
		}
	}
	e.labels = nil
	if _, ok := e.sink.(TraceProvider); ok {
		if e.labelsCache == nil {
			e.labelsCache = buildLabels(cfg.System)
		}
		e.labels = e.labelsCache
	}
	if e.fAfterFn == nil {
		e.fAfterFn = e.evalFrequencyAfter
	}
	if e.gstat == nil {
		e.gstat = newGraphStatsCollector(e.names)
	} else {
		e.gstat.reset(e.names)
	}
}

// resetFloats returns s resized to n elements, all zero, reusing capacity.
func resetFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resetInts returns s resized to n elements, all zero, reusing capacity.
func resetInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// run executes the simulation until the horizon is reached and every released
// instance has completed.
func (e *engine) run() *Result {
	for e.step() {
	}
	e.finalize()
	return e.res
}

// step processes the releases, misses and retirements due now, then makes
// one scheduling decision and runs or idles until the next one. It reports
// false when the simulation is over.
func (e *engine) step() bool {
	e.releaseDue()
	e.recordMisses()
	e.dropCompleted()

	if e.now >= e.horiz-timeEpsilon && !e.hasPendingWork() {
		return false
	}

	effFreq, segments := e.realize(e.selectFrequency())

	cands := e.candidates()
	e.res.SchedulingDecisions++
	if len(cands) == 0 {
		// Idle until the next release (or the horizon, whichever is later if
		// no releases remain).
		next := e.nextEvent()
		if next <= e.now+timeEpsilon {
			// No future release and nothing to run: we are done.
			return false
		}
		e.idle(next - e.now)
		return true
	}

	e.execute(e.choose(cands, effFreq), effFreq, segments)
	return true
}

// releaseDue creates instances for every graph whose next release time has
// arrived (and lies before the horizon). Only a release moves nextDue, so
// the graphs are scanned only when the earliest of them is due.
func (e *engine) releaseDue() {
	if e.nextDue > e.now+timeEpsilon {
		return
	}
	for gi, g := range e.sys.Graphs {
		for e.nextRelease[gi] <= e.now+timeEpsilon && e.nextRelease[gi] < e.horiz-timeEpsilon {
			e.release(gi, g, e.nextRelease[gi])
			e.nextRelease[gi] += g.Period
		}
	}
	e.nextDue = e.earliestRelease()
}

// earliestRelease returns the earliest next release below the horizon, or
// +Inf when none remains.
func (e *engine) earliestRelease() float64 {
	next := math.Inf(1)
	for _, t := range e.nextRelease {
		if t < e.horiz-timeEpsilon && t < next {
			next = t
		}
	}
	return next
}

// allocInstance returns a reset instance with nn node slots and an empty
// ready set, recycling a retired one when available.
func (e *engine) allocInstance(nn int) *instance {
	var in *instance
	if n := len(e.freeList); n > 0 {
		in = e.freeList[n-1]
		e.freeList[n-1] = nil
		e.freeList = e.freeList[:n-1]
	} else {
		in = &instance{}
	}
	if cap(in.nodes) >= nn {
		in.nodes = in.nodes[:nn]
	} else {
		in.nodes = make([]nodeState, nn)
	}
	switch words := (nn + 63) >> 6; {
	case words <= len(in.readyInline):
		in.ready = in.readyInline[:words]
	case words <= cap(in.readySpill):
		in.ready = in.readySpill[:words]
	default:
		in.readySpill = make([]uint64, words)
		in.ready = in.readySpill
	}
	clear(in.ready)
	return in
}

func (e *engine) release(gi int, g *taskgraph.Graph, at float64) {
	in := e.allocInstance(g.NumNodes())
	in.graphIndex = gi
	in.jobIndex = e.jobCounter[gi]
	in.release = at
	in.deadline = at + g.Period
	in.remaining = g.NumNodes()
	in.adjustedWC = e.totalWCET[gi]
	in.missed = false
	e.jobCounter[gi]++
	for i := range in.nodes {
		id := taskgraph.NodeID(i)
		in.nodes[i] = nodeState{
			wcet:      g.Nodes[i].WCET,
			actual:    e.cfg.Execution.Actual(g, id),
			predsLeft: len(g.Predecessors(id)),
		}
		if in.nodes[i].actual > in.nodes[i].wcet {
			in.nodes[i].actual = in.nodes[i].wcet
		}
		if in.nodes[i].actual <= 0 {
			in.nodes[i].actual = cycleEpsilon
		}
		if in.nodes[i].predsLeft == 0 {
			in.setReady(i)
		}
	}
	in.remainingWC = 0
	if e.sumsWork {
		in.remainingWC = in.sumRemainingWC()
	}
	e.insertReleased(in, g)
	e.res.JobsReleased++
	e.gstat.released(gi)
}

// insertReleased inserts the instance and its view at its EDF position,
// keeping the released list sorted at all times (instanceBefore is a strict
// total order, so incremental insertion reproduces exactly the order a stable
// sort of the whole list would).
func (e *engine) insertReleased(in *instance, g *taskgraph.Graph) {
	i := sort.Search(len(e.released), func(i int) bool { return instanceBefore(in, e.released[i]) })
	e.released = append(e.released, nil)
	copy(e.released[i+1:], e.released[i:])
	e.released[i] = in
	e.views = append(e.views, dvs.InstanceView{})
	copy(e.views[i+1:], e.views[i:])
	e.views[i] = in.view(g, e.totalWCET[in.graphIndex])
	e.planValid = false
}

// recordMisses flags instances whose deadline passed while work remains. The
// released list is in deadline order, so the scan stops at the first
// deadline still ahead.
func (e *engine) recordMisses() {
	for _, in := range e.released {
		if in.deadline >= e.now-timeEpsilon {
			return
		}
		if !in.missed && in.remaining > 0 {
			in.missed = true
			e.res.DeadlineMisses++
			e.gstat.missedWithoutCompletion(in.graphIndex)
		}
	}
}

// dropCompleted removes finished instances from the released list — but only
// once their deadline (equal to the next release of the same graph) has
// passed. Keeping completed instances visible until then implements the
// paper's rule that WC_i reflects the actual computations "as long as the new
// instance of the taskgraph Ti is not released", which is also what keeps the
// ccEDF/laEDF utilisation accounting (and hence the deadline guarantee)
// intact. Dropped instances return to the free list for recycling. Only a
// prefix of the deadline-ordered list can be due, and the list and its views
// are compacted only when one of its instances is complete.
func (e *engine) dropCompleted() {
	first := -1
	for i, in := range e.released {
		if in.deadline > e.now+timeEpsilon {
			break
		}
		if in.remaining == 0 {
			first = i
			break
		}
	}
	if first < 0 {
		return
	}
	n := first
	for i := first; i < len(e.released); i++ {
		in := e.released[i]
		if in.remaining == 0 && in.deadline <= e.now+timeEpsilon {
			e.freeList = append(e.freeList, in)
			continue
		}
		e.released[n] = in
		e.views[n] = e.views[i]
		n++
	}
	clear(e.released[n:])
	e.released = e.released[:n]
	e.views = e.views[:n]
	e.planValid = false
}

// hasPendingWork reports whether any released instance still has unfinished
// nodes.
func (e *engine) hasPendingWork() bool {
	for _, in := range e.released {
		if in.remaining > 0 {
			return true
		}
	}
	return false
}

// selectFrequency returns the DVS algorithm's reference frequency for the
// released instances' views. Under laEDF it first brings the plan up to
// date, and the pUBS look-ahead then queries it.
func (e *engine) selectFrequency() float64 {
	if e.planned {
		e.updatePlan()
		return e.plan.Frequency(e.now)
	}
	return e.cfg.DVS.SelectFrequency(e.now, e.fmax, e.views)
}

// updatePlan brings laEDF's plan up to date with the views: a Reset after
// they moved, else a Refresh from the highest position executed since the
// plan was last brought up to date, else nothing.
func (e *engine) updatePlan() {
	switch {
	case !e.planValid:
		e.plan.Reset(e.fmax, e.views)
		e.planValid = true
	case e.planFrom >= 0:
		e.plan.Refresh(e.planFrom, e.views)
	}
	e.planFrom = -1
}

// realize maps fref onto the processor: the effective execution frequency and
// the constant-current segments (share of the interval, frequency, battery
// current) used for segment emission.
type freqSegment struct {
	share     float64
	frequency float64
	current   float64
}

func (e *engine) realize(fref float64) (float64, []freqSegment) {
	p := e.cfg.Processor
	e.segsBuf = e.segsBuf[:0]
	if e.cfg.FrequencyMode == DiscreteFrequency || e.cfg.FrequencyMode == DiscreteCeilFrequency {
		var r processor.Realization
		if e.cfg.FrequencyMode == DiscreteCeilFrequency {
			r = p.RealizeCeilInto(fref, e.realBuf)
		} else {
			r = p.RealizeInto(fref, e.realBuf)
		}
		if cap(r.Segments) > cap(e.realBuf) {
			e.realBuf = r.Segments
		}
		for _, s := range r.Segments {
			if s.Share <= 0 {
				continue
			}
			e.segsBuf = append(e.segsBuf, freqSegment{
				share:     s.Share,
				frequency: s.Point.Frequency,
				current:   p.BatteryCurrentAtPoint(s.Point) + p.IdleCurrent,
			})
		}
		return r.EffectiveFrequency(), e.segsBuf
	}
	// Continuous mode: the idealised processor runs exactly at fref (only the
	// upper bound fmax applies) and draws the cubic-law battery current the
	// paper's energy analysis assumes.
	f := fref
	if f > p.FMax() {
		f = p.FMax()
	}
	if f < 0 {
		f = 0
	}
	e.segsBuf = append(e.segsBuf, freqSegment{share: 1, frequency: f, current: p.BatteryCurrentIdeal(f) + p.IdleCurrent})
	return f, e.segsBuf
}

// candidates builds the ready list according to the configured policy. The
// released list may contain instances that are already complete (kept for the
// DVS utilisation accounting until their deadline); they never contribute
// candidates. The first incomplete instance in EDF order is the "most
// imminent" one: its candidates are always admissible without a feasibility
// check, and under the MostImminentOnly policy only its candidates are
// offered. An instance's candidates are its ready nodes in node order. The
// returned slice is a scratch buffer reused across decisions.
func (e *engine) candidates() []candidateRef {
	out := e.candsBuf[:0]
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
		for w, word := range in.ready {
			for ; word != 0; word &= word - 1 {
				ni := w<<6 | bits.TrailingZeros64(word)
				ns := &in.nodes[ni]
				out = append(out, candidateRef{})
				c := &out[len(out)-1]
				c.inst = in
				c.imminent = pos == imminentPos
				c.cand.GraphIndex = in.graphIndex
				c.cand.Node = ni
				c.cand.RemainingWCET = ns.wcRemaining()
				if e.estimates {
					c.cand.EstimatedActual = e.estimateRemaining(in, ni, ns)
				}
				c.cand.AbsoluteDeadline = in.deadline
				c.cand.EDFPosition = pos
			}
		}
	}
	e.candsBuf = out
	return out
}

// estimateRemaining returns the X_k estimate for the remaining execution of a
// node: either the oracle (true actual remaining) or the history estimator's
// prediction minus what already ran. The prediction is cached in the node
// until completeNode observes the same (graph, node). Only a priority
// function that reads estimates gets one.
func (e *engine) estimateRemaining(in *instance, ni int, ns *nodeState) float64 {
	if e.cfg.OracleEstimates {
		return math.Max(ns.acRemaining(), cycleEpsilon)
	}
	if !ns.estimated {
		ns.estimate = e.cfg.Estimator.Estimate(in.graphIndex, ni, ns.wcet)
		ns.estimated = true
	}
	est := ns.estimate - ns.executed
	if est < cycleEpsilon {
		est = cycleEpsilon
	}
	if est > ns.wcRemaining() {
		est = math.Max(ns.wcRemaining(), cycleEpsilon)
	}
	return est
}

// choose scores the candidates with the priority function and returns the
// best feasible one, visiting them in candidateBefore order. Candidates of
// the most imminent task graph are always feasible, so the visit stops at
// the first of them at the latest; under the AllReleased policy an
// out-of-order candidate visited before it must pass the feasibility check.
// Each visit is one linear scan for the minimum of the candidates not yet
// visited, so a decision without rejections costs one scan; cands is
// reordered, and the result points into it.
func (e *engine) choose(cands []candidateRef, effFreq float64) *candidateRef {
	e.fAfterFreq = effFreq
	e.prioCtx = priority.Context{
		Now:              e.now,
		CurrentFrequency: effFreq,
		FMax:             e.fmax,
		FrequencyAfter:   e.fAfterFn,
		Rand:             e.rng,
	}
	// Every value is computed, in list order, before any is compared: Random
	// draws from the engine RNG.
	for i := range cands {
		cands[i].value = e.cfg.Priority.Priority(cands[i].cand, &e.prioCtx)
	}
	for n := len(cands); n > 0; n-- {
		best := 0
		for i := 1; i < n; i++ {
			if candidateBefore(&cands[i], &cands[best]) {
				best = i
			}
		}
		c := &cands[best]
		if c.imminent {
			return c
		}
		if feasible(c.cand.RemainingWCET, c.cand.EDFPosition, e.views, e.now, effFreq) {
			e.res.OutOfOrderExecutions++
			return c
		}
		e.res.FeasibilityRejections++
		// Park the rejected candidate past the unvisited ones.
		cands[best], cands[n-1] = cands[n-1], cands[best]
	}
	// Defensive: unreachable, because the most imminent incomplete instance
	// always has a ready node. Fall back to the overall best candidate, the
	// first one parked.
	return &cands[len(cands)-1]
}

// evalFrequencyAfter is the closure used by pUBS to evaluate s_{o,k}: the
// reference frequency the DVS algorithm would select if the candidate
// completed next after consuming assumedCycles. It is bound once per engine
// (fAfterFn) and reads the current decision's effective frequency from
// fAfterFreq. The hypothetical state differs from the current one in the
// candidate's view only. Under laEDF the decision's plan answers for the
// edited view. Any other algorithm is called on the views with that view
// edited in place, and the view is restored after SelectFrequency returns;
// an Algorithm that kept a reference to the views would see those edits
// (dvs.Algorithm forbids keeping one).
func (e *engine) evalFrequencyAfter(c priority.Candidate, assumedCycles float64) float64 {
	then := e.now
	if e.fAfterFreq > 0 {
		then += assumedCycles / e.fAfterFreq
	}
	k := c.EDFPosition
	if k < 0 || k >= len(e.views) {
		if e.planned {
			return e.plan.Frequency(then)
		}
		return e.cfg.DVS.SelectFrequency(then, e.fmax, e.views)
	}
	v := &e.views[k]
	remaining := v.RemainingWorstCase - c.RemainingWCET
	if remaining < 0 {
		remaining = 0
	}
	if e.planned {
		return e.plan.FrequencyAfter(then, k, remaining)
	}
	saved := *v
	v.AdjustedWCET = v.AdjustedWCET - c.RemainingWCET + assumedCycles
	if v.AdjustedWCET < 0 {
		v.AdjustedWCET = 0
	}
	v.RemainingWorstCase = remaining
	f := e.cfg.DVS.SelectFrequency(then, e.fmax, e.views)
	*v = saved
	return f
}

// idle advances time with the processor idle, emitting one segment at the
// idle current.
func (e *engine) idle(dur float64) {
	if dur <= 0 {
		return
	}
	cur := e.cfg.Processor.IdleCurrent
	e.charge.Append(dur, cur)
	e.sink.AppendSegment(Segment{Start: e.now, Duration: dur, Idle: true, Current: cur})
	e.res.IdleTime += dur
	e.now += dur
	e.lastRunning = nil
	e.lastNode = -1
}

// nextEvent returns the earliest future release time, or the horizon when no
// release remains before it.
func (e *engine) nextEvent() float64 {
	if math.IsInf(e.nextDue, 1) {
		if e.now < e.horiz {
			return e.horiz
		}
		return e.now
	}
	return e.nextDue
}

// execute runs the chosen candidate until it completes or the next release
// arrives, whichever comes first, then processes the completion if any and
// refreshes the instance's view.
func (e *engine) execute(c *candidateRef, effFreq float64, segments []freqSegment) {
	in := c.inst
	ns := &in.nodes[c.cand.Node]
	g := e.sys.Graphs[in.graphIndex]

	if e.lastRunning != nil && (e.lastRunning != in || e.lastNode != c.cand.Node) {
		// The previously running node was set aside while unfinished.
		if !e.lastRunning.nodes[e.lastNode].done {
			e.res.Preemptions++
		}
	}
	e.lastRunning = in
	e.lastNode = c.cand.Node

	if effFreq <= 0 {
		effFreq = e.cfg.Processor.FMin()
	}
	timeToFinish := ns.acRemaining() / effFreq
	nextRel := e.nextEvent()
	dur := timeToFinish
	completes := true
	if nextRel > e.now+timeEpsilon && nextRel-e.now < dur-timeEpsilon {
		dur = nextRel - e.now
		completes = false
	}
	if dur <= 0 {
		dur = timeEpsilon
	}

	cycles := effFreq * dur
	if completes {
		cycles = ns.acRemaining()
	}

	// Emit one segment per realised frequency level (higher-frequency portion
	// first so the within-interval current profile is non-increasing).
	var label string
	if e.labels != nil {
		label = e.labels[in.graphIndex][c.cand.Node]
	}
	start := e.now
	for _, seg := range segments {
		d := dur * seg.share
		if d <= 0 {
			continue
		}
		e.charge.Append(d, seg.current)
		e.sink.AppendSegment(Segment{
			Start:      start,
			Duration:   d,
			GraphIndex: in.graphIndex,
			Node:       c.cand.Node,
			Label:      label,
			Instance:   in.jobIndex,
			Frequency:  seg.frequency,
			Current:    seg.current,
		})
		start += d
	}

	ns.executed += cycles
	e.res.BusyTime += dur
	e.res.ExecutedCycles += cycles
	e.now += dur

	if completes || ns.acRemaining() <= cycleEpsilon {
		e.completeNode(in, c.cand.Node, ns, g)
	}
	if e.sumsWork {
		in.remainingWC = in.sumRemainingWC()
	}
	v := &e.views[c.cand.EDFPosition]
	v.AdjustedWCET = in.adjustedWC
	v.RemainingWorstCase = in.remainingWC
	e.planFrom = max(e.planFrom, c.cand.EDFPosition)
}

// completeNode finishes a node: updates WC_i with the actual requirement
// (the paper's endofnode handler), releases successors and retires the
// instance when its last node finishes. When the engine asks the Estimator,
// it observes the node, which invalidates the cached estimate of every
// released copy of the node.
func (e *engine) completeNode(in *instance, nodeIdx int, ns *nodeState, g *taskgraph.Graph) {
	ns.done = true
	ns.executed = ns.actual
	in.ready[nodeIdx>>6] &^= 1 << (nodeIdx & 63)
	in.remaining--
	in.adjustedWC += ns.actual - ns.wcet
	if in.adjustedWC < 0 {
		in.adjustedWC = 0
	}
	if e.usesEstimator {
		e.cfg.Estimator.Observe(in.graphIndex, nodeIdx, ns.wcet, ns.actual)
		for _, other := range e.released {
			if other.graphIndex == in.graphIndex {
				other.nodes[nodeIdx].estimated = false
			}
		}
	}
	for _, s := range g.Successors(taskgraph.NodeID(nodeIdx)) {
		if in.nodes[s].predsLeft--; in.nodes[s].predsLeft == 0 {
			in.setReady(int(s))
		}
	}
	e.res.NodesCompleted++
	e.lastRunning = nil
	e.lastNode = -1
	if in.remaining == 0 {
		e.res.JobsCompleted++
		newlyMissed := false
		if !in.missed && in.deadline < e.now-1e-9 {
			in.missed = true
			e.res.DeadlineMisses++
			newlyMissed = true
		}
		e.gstat.completed(in.graphIndex, e.now-in.release, in.deadline-e.now, newlyMissed)
	}
}

// finalize fills the derived fields of the Result. The profile and trace are
// attached when the configured sink built them (the default Recorder builds
// both; accumulate-only sinks leave them nil).
func (e *engine) finalize() {
	if p, ok := e.sink.(ProfileProvider); ok {
		e.res.Profile = p.BuiltProfile()
	}
	if t, ok := e.sink.(TraceProvider); ok {
		e.res.Trace = t.BuiltTrace()
	}
	e.res.Horizon = e.now
	vbat := e.cfg.Processor.BatteryVoltage
	e.res.EnergyBattery = e.charge.Charge() * vbat
	e.res.EnergyProcessor = e.res.EnergyBattery * e.cfg.Processor.ConverterEfficiency
	if e.res.BusyTime > 0 {
		e.res.AverageFrequency = e.res.ExecutedCycles / e.res.BusyTime
	}
	e.res.PerGraph = e.gstat.finalize()
}

// graphLabel returns the graph's name or a positional fallback.
func graphLabel(g *taskgraph.Graph, index int) string {
	if g.Name != "" {
		return g.Name
	}
	return fmt.Sprintf("T%d", index+1)
}

// lazySource is the engine RNG's source: after Seed(seed) it draws exactly
// what rand.NewSource(seed) would, but it seeds the generator (1,841 Lehmer
// steps) as rarely as it can. Seed only records the seed, and the first draw
// after it seeds the generator, so a run that never draws skips the seeding.
// The source also keeps a tape of the values the generator drew since it was
// seeded. A Seed with the seed the generator was last seeded with, and no
// other Seed since, rewinds the tape instead of seeding: draws replay the
// tape, then continue from the generator, and extend the tape. The drivers
// run every Random-ordering scheme of a set with the same seed, so only the
// set's first Random run seeds. The tape holds at most tapeCap values; once
// the generator has drawn past that, the tape no longer holds every value
// since the seeding, and the next Seed seeds afresh.
type lazySource struct {
	src     rand.Source64 // nil until the first draw
	seed    int64         // the last Seed's seed
	seeded  bool          // src is seeded with seed
	tape    []uint64      // src's draws since it was seeded, up to tapeCap of them
	pos     int           // the next tape value to replay; len(tape) past the tape
	spilled bool          // src drew more than tapeCap values since it was seeded
}

// tapeCap bounds lazySource's tape: 128 KiB, several times the draws of a
// Random-ordering run of a paper-sized set.
const tapeCap = 1 << 14

func (s *lazySource) Seed(seed int64) {
	if s.seeded && seed == s.seed && !s.spilled {
		s.pos = 0
		return
	}
	s.seed, s.seeded = seed, false
}

// Int63 is Uint64 with the top bit cleared, as it is for rand.NewSource's
// generator.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *lazySource) Uint64() uint64 {
	if !s.seeded {
		s.reseed()
	}
	if s.pos < len(s.tape) {
		v := s.tape[s.pos]
		s.pos++
		return v
	}
	v := s.src.Uint64()
	if len(s.tape) < tapeCap {
		s.tape = append(s.tape, v)
		s.pos = len(s.tape)
	} else {
		s.spilled = true
	}
	return v
}

// reseed seeds the generator with the last Seed's seed and empties the tape.
func (s *lazySource) reseed() {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	} else {
		s.src.Seed(s.seed)
	}
	s.seeded = true
	s.tape, s.pos, s.spilled = s.tape[:0], 0, false
}
