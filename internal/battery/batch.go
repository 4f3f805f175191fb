package battery

import (
	"fmt"

	"battsched/internal/obs"
	"battsched/internal/profile"
)

// SimulateBatch plays one load profile against N battery models and returns
// one Result per model in input order. It validates the models and the
// profile once, then runs each model through the same dispatch as
// SimulateUntilExhausted, so the results are bit-identical to N sequential
// SimulateUntilExhausted calls with the same options, also when one instance
// appears more than once.
func SimulateBatch(models []Model, p *profile.Profile, opts SimulateOptions) ([]Result, error) {
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("%w (batch index %d)", ErrNilModel, i)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProfile, err)
	}
	if err := opts.prepare(); err != nil {
		return nil, err
	}
	obs.Sim.BatteryBatches.Add(1)
	results := make([]Result, len(models))
	for i, m := range models {
		r, err := simulate(m, p, opts)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	return results, nil
}
