package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"battsched/internal/battery"
	"battsched/internal/profile"
	"battsched/internal/runner"
	"battsched/internal/stats"
)

// CurveConfig parameterises the load versus delivered-capacity battery
// characterisation sweep referenced in Section 5 of the paper (the curve
// whose extrapolations define the maximum capacity at zero load and the
// available charge at very large loads).
type CurveConfig struct {
	// Models lists the battery model names to sweep ("stochastic", "kibam",
	// "diffusion", "peukert"); empty selects all four.
	Models []string
	// Currents are the constant loads in amperes; empty selects a default
	// sweep from 50 mA to 4 A.
	Currents []float64
	// MaxHours caps each constant-load simulation.
	MaxHours float64
	// MaxStep, when positive, forces the uniform-stepping simulation path
	// with this substep; zero selects the analytic fast path for models that
	// support it (battery.SimulateOptions.MaxStep).
	MaxStep float64
	// RunOptions tune the parallel execution of the (model × current) grid.
	RunOptions
}

// DefaultCurveConfig returns the default sweep.
func DefaultCurveConfig() CurveConfig {
	return CurveConfig{
		Models:   []string{"stochastic", "kibam", "diffusion", "peukert"},
		Currents: []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0},
		MaxHours: 60,
	}
}

// QuickCurveConfig returns a reduced sweep for fast benchmark runs.
func QuickCurveConfig() CurveConfig {
	return CurveConfig{
		Models:   []string{"kibam", "stochastic"},
		Currents: []float64{0.2, 1.0, 2.0},
		MaxHours: 60,
	}
}

func init() {
	mustRegister(Definition{
		Name:      "curve",
		Title:     "Load vs delivered-capacity battery characterisation curve",
		Paper:     "Section 5 (the curve whose extrapolations define maximum capacity and available charge)",
		Shardable: false,
		Run: func(ctx context.Context, spec Spec) (*Report, error) {
			cfg := DefaultCurveConfig()
			if spec.Quick {
				cfg = QuickCurveConfig()
			}
			if spec.Battery != "" {
				cfg.Models = []string{spec.Battery}
			}
			cfg.MaxStep = spec.MaxStep
			cfg.RunOptions = spec.RunOptions
			return RunLoadCapacityCurve(ctx, cfg)
		},
		table: table{
			head: "Load vs delivered capacity (mAh)\n",
			rows: curveRows,
			foot: "(%.1fs)\n",
		},
	})
}

// curveRows renders the curve as a pivot: one column per battery model (a
// run of rows with one model_index) and one line per current of the first
// model; a model with fewer points reads "-".
func curveRows(b *strings.Builder, r *Report) {
	var series [][]ReportRow
	for i, row := range r.Rows {
		if i == 0 || row.Labels["model_index"] != r.Rows[i-1].Labels["model_index"] {
			series = append(series, nil)
		}
		series[len(series)-1] = append(series[len(series)-1], row)
	}
	header := "current (A)"
	for _, s := range series {
		header += fmt.Sprintf(" | %12s", s[0].Labels["model"])
	}
	fmt.Fprintln(b, header)
	fmt.Fprintln(b, strings.Repeat("-", len(header)))
	if len(series) == 0 {
		return
	}
	for i, first := range series[0] {
		current, _ := strconv.ParseFloat(first.Labels["current"], 64)
		line := fmt.Sprintf("%11.3f", current)
		for _, s := range series {
			if i < len(s) {
				line += fmt.Sprintf(" | %12.0f", s[i].Cells["delivered_mah"].Mean)
			} else {
				line += fmt.Sprintf(" | %12s", "-")
			}
		}
		fmt.Fprintln(b, line)
	}
}

// RunLoadCapacityCurve sweeps constant loads for each requested battery model
// and returns the curve's Report: one row per (model, current) point, model
// by model. Each current is one job of the runner harness: one batch pass
// (battery.SimulateBatch) drives every model's instance to exhaustion at that
// constant load. The sweep is deterministic (no stochastic sets), so
// RunOptions.TargetCI has no effect and the experiment does not shard.
func RunLoadCapacityCurve(ctx context.Context, cfg CurveConfig) (*Report, error) {
	if len(cfg.Models) == 0 {
		cfg.Models = DefaultCurveConfig().Models
	}
	if len(cfg.Currents) == 0 {
		cfg.Currents = DefaultCurveConfig().Currents
	}
	if cfg.MaxHours <= 0 {
		cfg.MaxHours = 60
	}
	for _, c := range cfg.Currents {
		if c <= 0 {
			return nil, fmt.Errorf("%w: non-positive current %v", ErrBadConfig, c)
		}
	}
	factories, err := resolveBatteryFactories(cfg.Models)
	if err != nil {
		return nil, err
	}

	curves := make([][]battery.CurvePoint, len(cfg.Models)) // [model][current]
	for mi := range curves {
		curves[mi] = make([]battery.CurvePoint, len(cfg.Currents))
	}
	err = runner.RunStream(ctx, len(cfg.Currents), cfg.runnerOptions(), func(_ context.Context, ci int) ([]battery.CurvePoint, error) {
		current := cfg.Currents[ci]
		// Jobs run in parallel, so each builds its own instances; within the
		// job the whole model axis is one batch pass over the constant-load
		// profile.
		models := make([]battery.Model, len(factories))
		for mi, factory := range factories {
			models[mi] = factory()
		}
		p := profile.Constant(current, cfg.MaxHours*3600)
		rs, err := battery.SimulateBatch(models, p,
			battery.SimulateOptions{MaxTime: cfg.MaxHours * 3600, MaxStep: cfg.MaxStep})
		if err != nil {
			return nil, err
		}
		points := make([]battery.CurvePoint, len(rs))
		for mi, r := range rs {
			points[mi] = battery.CurvePoint{
				Current:         current,
				DeliveredMAh:    r.DeliveredMAh(),
				LifetimeMinutes: r.LifetimeMinutes(),
			}
		}
		return points, nil
	}, func(ci int, points []battery.CurvePoint) error {
		for mi, p := range points {
			curves[mi][ci] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Version:    ReportVersion,
		Experiment: "curve",
		Meta: map[string]string{
			"max_hours": formatFloat(cfg.MaxHours),
			"max_step":  formatFloat(cfg.MaxStep),
			"models":    strings.Join(cfg.Models, ","),
		},
	}
	// One row per (model, current) point; the single observation is stored as
	// an n=1 accumulator state so the curve shares the generic cell shape.
	point := func(v float64) Cell {
		var a stats.Accumulator
		a.Add(v)
		return Cell{State: a.State()}
	}
	for mi, model := range cfg.Models {
		for _, p := range curves[mi] {
			current := formatFloat(p.Current)
			rep.Rows = append(rep.Rows, ReportRow{
				Key:    model + "@" + current,
				Labels: map[string]string{"model": model, "current": current, "model_index": strconv.Itoa(mi)},
				Cells: map[string]Cell{
					"delivered_mah": point(p.DeliveredMAh),
					"life_min":      point(p.LifetimeMinutes),
				},
			})
		}
	}
	return rep, nil
}
