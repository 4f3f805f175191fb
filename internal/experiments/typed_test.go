package experiments

import "context"

// The typed drivers the tests compare rows with: each runs an experiment's
// report driver directly and converts the Report to its typed rows, the rows
// FormatReport renders.

// RunTable1 regenerates Table 1 and returns its typed rows (see
// runTable1Report; the registry path returns the Report directly).
func RunTable1(ctx context.Context, cfg Table1Config) ([]Table1Row, error) {
	rep, err := runTable1Report(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return table1RowsFromReport(rep), nil
}

// RunFigure6 regenerates Figure 6 and returns its typed rows (see
// runFigure6Report; the registry path returns the Report directly).
func RunFigure6(ctx context.Context, cfg Figure6Config) ([]Figure6Row, error) {
	rep, err := runFigure6Report(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return figure6RowsFromReport(rep), nil
}

// RunTable2 regenerates Table 2 and returns its typed rows (see
// runTable2Report; the registry path returns the Report directly).
func RunTable2(ctx context.Context, cfg Table2Config) ([]Table2Row, error) {
	rep, err := runTable2Report(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return table2RowsFromReport(rep), nil
}

// RunEstimateAblation runs the estimate-quality ablation and returns its
// typed rows (see runEstimateAblationReport; the registry path returns the
// Report directly).
func RunEstimateAblation(ctx context.Context, cfg EstimateAblationConfig) ([]EstimateAblationRow, error) {
	rep, err := runEstimateAblationReport(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return estimateAblationRowsFromReport(rep), nil
}
