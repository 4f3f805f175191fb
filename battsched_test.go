package battsched_test

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"battsched"
	"battsched/internal/service"
)

// buildVideoPipeline builds a small realistic task graph through the public
// API: a decode -> {scale, audio} -> mux pipeline with a 40 ms period.
func buildVideoPipeline() *battsched.Graph {
	g := battsched.NewGraph("video", 0.040)
	decode := g.AddNode("decode", 8e6)
	scale := g.AddNode("scale", 6e6)
	audio := g.AddNode("audio", 3e6)
	mux := g.AddNode("mux", 2e6)
	g.AddEdge(decode, scale)
	g.AddEdge(decode, audio)
	g.AddEdge(scale, mux)
	g.AddEdge(audio, mux)
	return g
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := battsched.NewSystem(buildVideoPipeline())
	res, err := battsched.Run(battsched.Config{
		System:       sys,
		Processor:    battsched.DefaultProcessor(),
		DVS:          battsched.NewLAEDF(),
		Priority:     battsched.NewPUBS(),
		ReadyPolicy:  battsched.AllReleased,
		Execution:    battsched.NewUniformExecution(0.2, 1.0, 1),
		Hyperperiods: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("deadline misses = %d", res.DeadlineMisses)
	}
	if res.JobsCompleted != 10 {
		t.Fatalf("jobs completed = %d, want 10", res.JobsCompleted)
	}
	for _, m := range []battsched.BatteryModel{
		battsched.NewKiBaM(), battsched.NewDiffusionBattery(),
		battsched.NewStochasticBattery(), battsched.NewPeukertBattery(),
	} {
		life, err := battsched.BatteryLifetimeOpts(m, res.Profile, battsched.BatterySimulateOptions{MaxTime: 72 * 3600, MaxStep: 5})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if life.LifetimeMinutes() <= 0 || life.DeliveredMAh() <= 0 || life.DeliveredMAh() > 2001 {
			t.Fatalf("%s: implausible result %+v", m.Name(), life)
		}
	}
}

func TestPublicAPISchemes(t *testing.T) {
	schemes := battsched.PaperSchemes()
	if len(schemes) != 5 {
		t.Fatalf("schemes = %d, want 5", len(schemes))
	}
	if schemes[3].Name != "BAS-1" || battsched.BAS2().Name != "BAS-2" {
		t.Fatal("BAS-1/BAS-2 names wrong")
	}
	if battsched.BAS2().ReadyPolicy != battsched.AllReleased {
		t.Fatal("BAS-2 must use the all-released ready list")
	}
	sys := battsched.NewSystem(buildVideoPipeline())
	for _, s := range schemes {
		res, err := battsched.Run(battsched.Config{
			System:        sys.Clone(),
			DVS:           s.DVS,
			Priority:      s.Priority,
			ReadyPolicy:   s.ReadyPolicy,
			FrequencyMode: battsched.DiscreteFrequency,
			Execution:     battsched.NewUniformExecution(0.2, 1.0, 2),
			Hyperperiods:  5,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.DeadlineMisses != 0 {
			t.Fatalf("%s: %d deadline misses", s.Name, res.DeadlineMisses)
		}
	}
}

func TestPublicAPIGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys, err := battsched.GenerateSystem(battsched.DefaultGeneratorConfig(), 4, 0.7, battsched.DefaultProcessor().FMax(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Utilization(battsched.DefaultProcessor().FMax()); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("utilisation = %v", got)
	}
}

func TestPublicAPIOrderingAnalysis(t *testing.T) {
	g := battsched.NewGraph("fig4", 10)
	g.AddNode("task1", 4e9)
	g.AddNode("task2", 6e9)
	params := battsched.OrderingParams{Deadline: 10, FMax: 1e9, Actuals: []float64{0.4 * 4e9, 0.6 * 6e9}}
	opt, err := battsched.OptimalOrder(g, params)
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := battsched.GreedyOrder(g, battsched.NewPUBS(), params, params.Actuals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pubs.Energy < opt.Energy-1e-6 {
		t.Fatal("greedy beat the optimum")
	}
	ev, err := battsched.EvaluateOrder(g, []battsched.NodeID{0, 1}, params)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Feasible {
		t.Fatal("order infeasible")
	}
}

func TestPublicAPIConversions(t *testing.T) {
	if battsched.MAh(3600) != 1000 {
		t.Fatal("unit conversions wrong")
	}
	if battsched.DefaultProcessor().FMax() != 1e9 {
		t.Fatal("default processor fmax wrong")
	}
}

func TestPublicAPICapacityCurve(t *testing.T) {
	pts, err := battsched.DeliveredCapacityCurve(battsched.NewKiBaM(), []float64{0.5, 2.0}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].DeliveredMAh > pts[0].DeliveredMAh+1 {
		t.Fatalf("curve wrong: %+v", pts)
	}
}

// TestPublicAPIParallelMap checks the exported job-grid runner: ordered
// results, per-job seed derivation, and worker-count independence.
func TestPublicAPIParallelMap(t *testing.T) {
	job := func(_ context.Context, i int) (float64, error) {
		return battsched.SeededRNG(3, int64(i)).Float64(), nil
	}
	seq, err := battsched.ParallelMap(context.Background(), 16, battsched.RunnerOptions{Parallelism: 1}, job)
	if err != nil {
		t.Fatal(err)
	}
	par, err := battsched.ParallelMap(context.Background(), 16, battsched.RunnerOptions{Parallelism: 8}, job)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("job %d differs across worker counts", i)
		}
	}
	if battsched.DeriveSeed(1, 2) == battsched.DeriveSeed(1, 3) {
		t.Fatal("DeriveSeed collision")
	}
}

// TestPublicAPIScenarioGrid runs a minimal scenario-grid sweep through the
// root facade.
func TestPublicAPIScenarioGrid(t *testing.T) {
	cfg := battsched.DefaultScenarioGridConfig()
	cfg.Utilizations = []float64{0.7}
	cfg.Batteries = []string{"peukert"}
	cfg.Schemes = []string{"BAS-2"}
	cfg.Sets = 2
	cfg.GraphsPerSet = 2
	cfg.Hyperperiods = 1
	rep, err := battsched.RunScenarioGrid(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Key != "0.7|peukert|BAS-2" || rep.Rows[0].Cells["charge_mah"].N != 2 ||
		rep.Rows[0].Cells["life_min"].Mean <= 0 || rep.Rows[0].Counts["deadline_misses"] != 0 {
		t.Fatalf("rows = %+v", rep.Rows)
	}
	if out, err := battsched.FormatExperimentReport(rep); err != nil || !strings.Contains(out, "BAS-2") {
		t.Fatalf("format output unexpected (%v):\n%s", err, out)
	}
}

// TestPublicAPIExperimentRegistry runs a registered experiment and renders
// its report through the root facade.
func TestPublicAPIExperimentRegistry(t *testing.T) {
	rep, err := battsched.RunExperiment(context.Background(), "table2", battsched.ExperimentSpec{Quick: true, Battery: "kibam"})
	if err != nil {
		t.Fatal(err)
	}
	text, err := battsched.FormatExperimentReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "BAS-2") || !strings.Contains(text, "kibam") {
		t.Fatalf("report rendering unexpected:\n%s", text)
	}
}

// TestPublicAPIExperimentService drives an in-process experiment daemon
// through the facade's client: submit a quick Table 2 job over HTTP, wait for
// it, and check that the fetched artifact matches the local registry run and
// that a resubmission is served from the content-addressed cache.
func TestPublicAPIExperimentService(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := battsched.ExperimentSpec{Quick: true, Battery: "kibam"}
	hash := battsched.ExperimentSpecHash("table2", spec)
	if len(hash) != 64 {
		t.Fatalf("spec hash = %q", hash)
	}

	ctx := context.Background()
	c := battsched.NewExperimentServiceClient(ts.URL)
	st, err := c.Submit(ctx, battsched.ServiceJobRequest{
		Experiment: "table2", Spec: battsched.ServiceSpecRequest(spec),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hash != hash {
		t.Fatalf("daemon hash %s, facade hash %s", st.Hash, hash)
	}
	st, err = c.Wait(ctx, st.ID, 10*time.Millisecond, nil)
	if err != nil || st.State != "done" {
		t.Fatalf("wait: %v (state %s: %s)", err, st.State, st.Error)
	}
	reports, err := c.Reports(ctx, st.ID)
	if err != nil || len(reports) != 1 {
		t.Fatalf("reports: %v (%d)", err, len(reports))
	}
	local, err := battsched.RunExperiment(ctx, "table2", spec)
	if err != nil {
		t.Fatal(err)
	}
	servedText, err := battsched.FormatExperimentReport(reports[0])
	if err != nil {
		t.Fatal(err)
	}
	localText, err := battsched.FormatExperimentReport(local)
	if err != nil {
		t.Fatal(err)
	}
	if servedText != localText {
		t.Fatalf("served table differs from local run:\n%s\n---\n%s", servedText, localText)
	}

	st2, err := c.Submit(ctx, battsched.ServiceJobRequest{
		Experiment: "table2", Spec: battsched.ServiceSpecRequest(spec),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("resubmission not served from cache")
	}

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
}
