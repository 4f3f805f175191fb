package battsched

import (
	"context"
	"math/rand"

	"battsched/internal/battery"
	"battsched/internal/battery/diffusion"
	"battsched/internal/battery/kibam"
	"battsched/internal/battery/peukert"
	"battsched/internal/battery/stochastic"
	"battsched/internal/core"
	"battsched/internal/dvs"
	"battsched/internal/experiments"
	"battsched/internal/optimal"
	"battsched/internal/priority"
	"battsched/internal/processor"
	"battsched/internal/profile"
	"battsched/internal/service"
	"battsched/internal/service/client"
	"battsched/internal/taskgraph"
	"battsched/internal/tgff"
	"battsched/internal/trace"
)

// Workload model types (see internal/taskgraph).
type (
	// Graph is a periodic task graph: a DAG of tasks with a period equal to
	// its relative deadline.
	Graph = taskgraph.Graph
	// Node is one task of a Graph.
	Node = taskgraph.Node
	// NodeID identifies a node within its graph.
	NodeID = taskgraph.NodeID
	// Edge is a precedence constraint between two nodes of a graph.
	Edge = taskgraph.Edge
	// System is the set of task graphs scheduled together.
	System = taskgraph.System
	// ExecutionModel draws the actual execution requirement of node instances.
	ExecutionModel = taskgraph.ExecutionModel
	// UniformExecution draws actual requirements uniformly in a fraction
	// range of the WCET (the paper uses 20–100 %).
	UniformExecution = taskgraph.UniformExecution
	// WorstCaseExecution makes every instance take its full WCET.
	WorstCaseExecution = taskgraph.WorstCaseExecution
	// FixedFractionExecution takes a fixed fraction of the WCET, optionally
	// overridden per node name.
	FixedFractionExecution = taskgraph.FixedFractionExecution
	// RecordedExecution wraps an ExecutionModel, records the draws of one
	// realisation, and replays them bit-exactly — the mechanism for running
	// several schemes on identical actual execution times.
	RecordedExecution = taskgraph.RecordedExecution
)

// NewGraph returns an empty task graph with the given name and period.
func NewGraph(name string, period float64) *Graph { return taskgraph.NewGraph(name, period) }

// NewSystem returns a System containing the given graphs.
func NewSystem(graphs ...*Graph) *System { return taskgraph.NewSystem(graphs...) }

// NewUniformExecution returns the paper's execution model: actual cycles
// drawn uniformly in [minFrac, maxFrac]*WCET.
func NewUniformExecution(minFrac, maxFrac float64, seed int64) *UniformExecution {
	return taskgraph.NewUniformExecution(minFrac, maxFrac, seed)
}

// NewRecordedExecution wraps inner in recording mode: the first simulation
// records every draw, and Replay rewinds so subsequent simulations observe
// the identical realisation regardless of scheme or DVS algorithm.
func NewRecordedExecution(inner ExecutionModel) *RecordedExecution {
	return taskgraph.NewRecordedExecution(inner)
}

// Random workload generation (see internal/tgff).
type (
	// GeneratorConfig controls the random task-graph generator (the in-repo
	// substitute for TGFF).
	GeneratorConfig = tgff.Config
)

// DefaultGeneratorConfig returns the configuration used by the paper's
// experiments (5–15 nodes per graph, uniform WCETs, random dependencies).
func DefaultGeneratorConfig() GeneratorConfig { return tgff.DefaultConfig() }

// GenerateSystem produces numGraphs random task graphs scaled to the given
// worst-case utilisation at fmax.
func GenerateSystem(cfg GeneratorConfig, numGraphs int, utilization, fmax float64, rng *rand.Rand) (*System, error) {
	return tgff.GenerateSystem(cfg, numGraphs, utilization, fmax, rng)
}

// Processor model (see internal/processor).
type (
	// Processor is the DVS processor and power-delivery model.
	Processor = processor.Model
	// OperatingPoint is one supported frequency/voltage pair.
	OperatingPoint = processor.OperatingPoint
)

// DefaultProcessor returns the paper's processor: operating points
// [(0.5 GHz, 3 V), (0.75 GHz, 4 V), (1 GHz, 5 V)] powered from a 1.2 V cell.
func DefaultProcessor() *Processor { return processor.Default() }

// DVS frequency-setting algorithms (see internal/dvs).
type (
	// DVSAlgorithm selects the reference frequency at scheduling decision
	// points.
	DVSAlgorithm = dvs.Algorithm
	// InstanceView is the per-instance summary handed to DVS algorithms.
	InstanceView = dvs.InstanceView
)

// NewNoDVS returns the no-scaling baseline (always f_max while busy).
func NewNoDVS() DVSAlgorithm { return dvs.NewNoDVS() }

// NewStaticEDF returns the static utilisation-based scaling baseline.
func NewStaticEDF() DVSAlgorithm { return dvs.NewStatic() }

// NewCCEDF returns the cycle-conserving EDF DVS algorithm extended to task
// graphs (the paper's Algorithm 1).
func NewCCEDF() DVSAlgorithm { return dvs.NewCCEDF() }

// NewLAEDF returns the look-ahead EDF DVS algorithm extended to task graphs.
func NewLAEDF() DVSAlgorithm { return dvs.NewLAEDF() }

// Priority functions (see internal/priority).
type (
	// PriorityFunction orders the ready list; the scheduler runs the
	// candidate with the smallest value.
	PriorityFunction = priority.Function
	// Candidate is one ready node offered to a priority function.
	Candidate = priority.Candidate
	// PriorityContext carries the scheduler state a priority function sees.
	PriorityContext = priority.Context
	// Estimator predicts actual execution requirements (X_k) for pUBS.
	Estimator = priority.Estimator
)

// NewPUBS returns Gruian's near-optimal pUBS priority function.
func NewPUBS() PriorityFunction { return priority.NewPUBS() }

// NewLTF returns the Largest-Task-First heuristic.
func NewLTF() PriorityFunction { return priority.NewLTF() }

// NewSTF returns the Shortest-Task-First heuristic.
func NewSTF() PriorityFunction { return priority.NewSTF() }

// NewRandomOrder returns the random ordering policy.
func NewRandomOrder() PriorityFunction { return priority.NewRandom() }

// NewFIFO returns the canonical EDF tie-breaking (FIFO) order.
func NewFIFO() PriorityFunction { return priority.NewFIFO() }

// Scheduler (see internal/core).
type (
	// Config assembles one scheduling simulation.
	Config = core.Config
	// Result summarises one scheduling simulation.
	Result = core.Result
	// ReadyPolicy selects BAS-1 (MostImminentOnly) or BAS-2 (AllReleased).
	ReadyPolicy = core.ReadyPolicy
	// FrequencyMode selects continuous or discrete frequency realisation.
	FrequencyMode = core.FrequencyMode
	// SimEngine is the reusable scheduling engine: Reset(Config) then Run,
	// repeatedly, reusing all scratch state — near zero allocations per run.
	// One-shot Run is the convenience wrapper over a throwaway SimEngine.
	SimEngine = core.Engine
)

// Ready-list policies and frequency modes.
const (
	// MostImminentOnly admits ready nodes of the earliest-deadline graph only
	// (BAS-1).
	MostImminentOnly = core.MostImminentOnly
	// AllReleased admits ready nodes of every released graph, guarded by the
	// feasibility check (BAS-2).
	AllReleased = core.AllReleased
	// ContinuousFrequency runs exactly at fref (idealised processor).
	ContinuousFrequency = core.ContinuousFrequency
	// DiscreteFrequency realises fref as a linear combination of the two
	// adjacent supported operating points.
	DiscreteFrequency = core.DiscreteFrequency
	// DiscreteCeilFrequency realises fref at the smallest supported operating
	// point above it (naive quantisation, for ablation studies).
	DiscreteCeilFrequency = core.DiscreteCeilFrequency
)

// Run executes one scheduling simulation.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// NewSimEngine returns an empty reusable engine. Reset it with a Config
// before each Run; results are byte-identical to one-shot Run with the same
// Config. See internal/core.Engine for the reuse and aliasing contract.
func NewSimEngine() *SimEngine { return core.NewEngine() }

// Execution traces and load profiles.
type (
	// Trace is the execution trace (Gantt) of a simulation.
	Trace = trace.Trace
	// TraceSlice is one interval of a Trace.
	TraceSlice = trace.Slice
	// GanttOptions control ASCII rendering of a Trace.
	GanttOptions = trace.GanttOptions
	// Profile is a piecewise-constant battery load-current profile.
	Profile = profile.Profile
	// ProfileSegment is one constant-current interval of a Profile.
	ProfileSegment = profile.Segment
)

// Simulation observers (see internal/core). The engine emits one
// constant-state segment per interval of the simulation; Config.Observer
// selects the sink that receives them. With a nil Observer the engine
// records a full profile + trace into the Result (the historical behaviour);
// experiment sweeps pass cheaper sinks. Energy totals never depend on the
// observer.
type (
	// SegmentSink observes the engine's emitted segments.
	SegmentSink = core.SegmentSink
	// EngineSegment is one constant-state interval of a simulation.
	EngineSegment = core.Segment
	// SimProfileRecorder records only the battery load-current profile.
	SimProfileRecorder = core.ProfileRecorder
)

// DiscardSegments is the no-op observer: no profile or trace is recorded
// (Result.Profile and Result.Trace stay nil); scheduling statistics and
// energy totals are still computed.
var DiscardSegments = core.Discard

// NewSimProfileRecorder returns a profile-only observer; the engine attaches
// its profile to Result.Profile.
func NewSimProfileRecorder() *SimProfileRecorder { return core.NewProfileRecorder() }

// Battery models (see internal/battery and its sub-packages).
type (
	// BatteryModel is the interface implemented by all battery models.
	BatteryModel = battery.Model
	// BatterySegmentDrainer is the optional analytic fast-path interface:
	// models implementing it (every registered model) are simulated one
	// whole constant-current segment at a time with closed-form exhaustion
	// root-finding instead of MaxStep substeps.
	BatterySegmentDrainer = battery.SegmentDrainer
	// BatteryRepetitionOperator advances a model by runs of whole profile
	// repetitions, each run in one closed-form call.
	BatteryRepetitionOperator = battery.RepetitionOperator
	// BatteryResult is the outcome of a battery lifetime simulation.
	BatteryResult = battery.Result
	// BatterySimulateOptions tune the battery simulation driver.
	BatterySimulateOptions = battery.SimulateOptions
	// CurvePoint is one point of a load versus delivered-capacity curve.
	CurvePoint = battery.CurvePoint
)

// NewKiBaM returns the default Kinetic Battery Model cell (1.2 V, 2000 mAh
// maximum capacity, AAA NiMH calibration).
func NewKiBaM() BatteryModel { return kibam.Default() }

// NewDiffusionBattery returns the default Rakhmatov–Vrudhula diffusion cell.
func NewDiffusionBattery() BatteryModel { return diffusion.Default() }

// NewStochasticBattery returns the default stochastic charge-unit cell (the
// model family the paper's own evaluation uses), in deterministic
// expected-value mode.
func NewStochasticBattery() BatteryModel { return stochastic.Default() }

// NewPeukertBattery returns the default Peukert's-law cell.
func NewPeukertBattery() BatteryModel { return peukert.Default() }

// BatteryLifetimeOpts plays the profile periodically against the model until
// the battery is exhausted or opts.MaxTime (default 48 h) is reached, and
// reports lifetime and delivered charge. With a zero MaxStep, models
// implementing BatterySegmentDrainer take the analytic fast path (whole
// segments, closed-form runs of repetitions, exhaustion root-finding):
// every registered model does. A positive MaxStep forces the
// uniform-stepping path for every model.
func BatteryLifetimeOpts(m BatteryModel, p *Profile, opts BatterySimulateOptions) (BatteryResult, error) {
	return battery.SimulateUntilExhausted(m, p, opts)
}

// BatteryLifetimeBatch evaluates N battery models against one load profile,
// returning one result per model in input order. It validates the profile
// once and is bit-identical to N BatteryLifetimeOpts calls.
func BatteryLifetimeBatch(models []BatteryModel, p *Profile, opts BatterySimulateOptions) ([]BatteryResult, error) {
	return battery.SimulateBatch(models, p, opts)
}

// DeliveredCapacityCurve sweeps constant loads and reports the delivered
// capacity of the model at each (the battery characterisation curve of §5).
func DeliveredCapacityCurve(m BatteryModel, currents []float64, maxTime float64) ([]CurvePoint, error) {
	return battery.DeliveredCapacityCurve(m, currents, maxTime)
}

// Single-graph ordering analysis (see internal/optimal) — the machinery
// behind the paper's Table 1.
type (
	// OrderingParams configure the single-graph greedy-rescaling model.
	OrderingParams = optimal.Params
	// OrderingEvaluation is the outcome of executing one order.
	OrderingEvaluation = optimal.Evaluation
)

// EvaluateOrder simulates one execution order of a single graph under the
// greedy speed-rescaling model.
func EvaluateOrder(g *Graph, order []NodeID, p OrderingParams) (OrderingEvaluation, error) {
	return optimal.EvaluateOrder(g, order, p)
}

// GreedyOrder builds and evaluates an order with the given priority function.
func GreedyOrder(g *Graph, prio PriorityFunction, p OrderingParams, estimates []float64, rng *rand.Rand) (OrderingEvaluation, error) {
	return optimal.GreedyOrder(g, prio, p, estimates, rng)
}

// OptimalOrder returns the energy-optimal linear extension of a single graph
// under the greedy speed-rescaling model, found exactly by a dynamic programme
// over the graph's order ideals (the sets of finished tasks closed under
// precedence) and evaluated by EvaluateOrder. The programme is exact while no
// speed clamps at FMax, so the graph's worst-case load TotalWCET/(FMax·Deadline)
// must be at most 1; a heavier graph is an error. So is a graph of more than 64
// nodes or more than 1<<20 order ideals (20 independent tasks have that many;
// Table 1's largest DAG has 2,040).
func OptimalOrder(g *Graph, p OrderingParams) (OrderingEvaluation, error) {
	return optimal.OptimalOrder(g, p)
}

// Scheme bundles the DVS algorithm, priority function and ready-list policy
// that define one of the scheduling schemes compared in the paper's Table 2.
type Scheme struct {
	// Name is the scheme's label ("BAS-2", "laEDF", ...).
	Name string
	// DVS selects the reference frequency.
	DVS DVSAlgorithm
	// Priority orders the ready list.
	Priority PriorityFunction
	// ReadyPolicy selects the candidate admission rule.
	ReadyPolicy ReadyPolicy
}

// PaperSchemes returns the five scheduling schemes of the paper's Table 2 in
// the paper's order: EDF without DVS, cycle-conserving ccEDF and look-ahead
// laEDF with random ordering, and the Battery-Aware Scheduling schemes BAS-1
// and BAS-2.
func PaperSchemes() []Scheme {
	return []Scheme{
		{Name: "EDF", DVS: NewNoDVS(), Priority: NewRandomOrder(), ReadyPolicy: MostImminentOnly},
		{Name: "ccEDF", DVS: NewCCEDF(), Priority: NewRandomOrder(), ReadyPolicy: MostImminentOnly},
		{Name: "laEDF", DVS: NewLAEDF(), Priority: NewRandomOrder(), ReadyPolicy: MostImminentOnly},
		{Name: "BAS-1", DVS: NewLAEDF(), Priority: NewPUBS(), ReadyPolicy: MostImminentOnly},
		{Name: "BAS-2", DVS: NewLAEDF(), Priority: NewPUBS(), ReadyPolicy: AllReleased},
	}
}

// BAS2 returns the paper's BAS-2 scheme (laEDF + pUBS over all released task
// graphs with the feasibility check).
func BAS2() Scheme { return PaperSchemes()[4] }

// MAh converts coulombs to milliampere-hours.
func MAh(coulombs float64) float64 { return battery.MAh(coulombs) }

// Unified experiment API (see internal/experiments): every registered
// experiment takes one declarative ExperimentSpec and returns one structured
// ExperimentReport — named rows of metric cells backed by serialisable
// accumulator state — from which the paper's plain-text tables render
// byte-identically and which shard partials merge through.
type (
	// ExperimentSpec is the declarative input of a registered experiment.
	ExperimentSpec = experiments.Spec
	// ExperimentReport is the structured result of an experiment run.
	ExperimentReport = experiments.Report
	// ExperimentRow is one named row of an ExperimentReport.
	ExperimentRow = experiments.ReportRow
	// ExperimentCell is one metric cell of an ExperimentRow.
	ExperimentCell = experiments.Cell
	// ExperimentShard selects one shard of a multi-process partition of an
	// experiment's absolute set indices.
	ExperimentShard = experiments.Shard
	// ExperimentShardInfo identifies one shard partial inside a Report.
	ExperimentShardInfo = experiments.ShardInfo
)

// RunExperiment executes the registered experiment name (`cmd/experiments
// list` shows them) with the given spec and returns its structured Report.
func RunExperiment(ctx context.Context, name string, spec ExperimentSpec) (*ExperimentReport, error) {
	return experiments.Run(ctx, name, spec)
}

// FormatExperimentReport renders a report as its experiment's plain-text
// table, byte-identical to the unsharded historical output.
func FormatExperimentReport(r *ExperimentReport) (string, error) {
	return experiments.FormatReport(r)
}

// ExperimentSpecHash returns the hex SHA-256 of the spec's canonical
// encoding: exactly the inputs that determine the report bytes, with
// default-equivalent values normalised and execution-only knobs
// (parallelism, progress, shard selection) excluded. It is the deterministic
// content address under which the experiment service caches the complete
// run's report artifact.
func ExperimentSpecHash(name string, spec ExperimentSpec) string {
	return experiments.SpecHash(name, spec)
}

// Experiment service client (see internal/service/client): the typed client
// of a running cmd/battschedd daemon or coordinator, which runs registered
// experiments behind an asynchronous bounded job queue with server-side
// shard fan-out and a content-addressed report cache. Artifacts fetched from
// a daemon are byte-identical to the files the equivalent local
// `cmd/experiments run -o` writes.
type (
	// ExperimentServiceClient is the typed client of a running daemon.
	ExperimentServiceClient = client.Client
	// ServiceJobRequest is one job submission (experiment, spec, shards).
	ServiceJobRequest = service.JobRequest
	// ServiceJobStatus is a job's state and per-shard progress.
	ServiceJobStatus = service.JobStatus
	// ServiceSpecRequest is the JSON wire form of an ExperimentSpec;
	// ServiceSpecRequest(spec) converts one, and the execution-only knobs
	// (parallelism, progress, shard selection) do not travel.
	ServiceSpecRequest = service.SpecRequest
	// ServiceHealth is the daemon's /healthz snapshot.
	ServiceHealth = service.Health
)

// NewExperimentServiceClient returns a client for the daemon at baseURL
// (e.g. "http://127.0.0.1:8344").
func NewExperimentServiceClient(baseURL string) *ExperimentServiceClient {
	return client.New(baseURL)
}
