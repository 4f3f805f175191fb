package experiments

import (
	"fmt"
	"strings"
	"time"
)

// FormatReport renders a Report as the experiment's plain-text table. The
// output is byte-identical to the historical Format* helpers: the report
// carries the full accumulator state and row labels, so the typed rows are
// reconstructed and formatted by the same code path.
func FormatReport(r *Report) (string, error) {
	switch r.Experiment {
	case "table1":
		return FormatTable1(table1RowsFromReport(r)), nil
	case "figure6":
		return FormatFigure6(figure6RowsFromReport(r)), nil
	case "table2":
		return FormatTable2(table2RowsFromReport(r), r.Meta["battery"], metaFloat(r.Meta, "utilization")), nil
	case "curve":
		return FormatCurve(curveSeriesFromReport(r)), nil
	case "ablation":
		return FormatEstimateAblation(estimateAblationRowsFromReport(r)), nil
	case "grid":
		return FormatScenarioGrid(scenarioGridRowsFromReport(r)), nil
	}
	return "", fmt.Errorf("%w: no renderer for experiment %q", ErrBadConfig, r.Experiment)
}

// Footer renders the per-experiment summary line cmd/experiments prints after
// each table (sample counts and wall-clock time), reproducing the historical
// output byte-for-byte. Unknown experiments get a generic timing line.
func Footer(r *Report, elapsed time.Duration) string {
	secs := elapsed.Seconds()
	n := func(cell string) int {
		if len(r.Rows) == 0 {
			return 0
		}
		return r.Rows[0].Cells[cell].N
	}
	switch r.Experiment {
	case "table1":
		return fmt.Sprintf("(%d DAGs per row, %.1fs)\n\n", n("random"), secs)
	case "figure6":
		return fmt.Sprintf("(%d sets per point, %s frequency setting, utilisation %.2f, %.1fs)\n\n",
			n("random"), r.Meta["alg"], metaFloat(r.Meta, "utilization"), secs)
	case "table2":
		return fmt.Sprintf("(%d task-graph sets, %.1fs)\n\n", n("charge_mah"), secs)
	case "curve":
		return fmt.Sprintf("(%.1fs)\n", secs)
	case "ablation":
		return fmt.Sprintf("(%d sets, %.1fs)\n", n("energy_vs_random"), secs)
	case "grid":
		return fmt.Sprintf("(%d sets per cell, %.1fs)\n", n("charge_mah"), secs)
	}
	return fmt.Sprintf("(%.1fs)\n", secs)
}

// FormatTable1 renders Table 1 rows as a plain-text table matching the
// paper's layout (energy normalised with respect to the optimal schedule).
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1: energy consumption normalised w.r.t. the optimal schedule")
	fmt.Fprintln(&b, "# of tasks |  Random  |   LTF    |   pUBS   | samples")
	fmt.Fprintln(&b, "-----------+----------+----------+----------+--------")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d | %8.2f | %8.2f | %8.2f | %6d\n",
			r.Tasks, r.Random, r.LTF, r.PUBS, r.Samples)
	}
	return b.String()
}

// FormatFigure6 renders Figure 6 rows as a plain-text series table (energy
// normalised with respect to the precedence-free near-optimal schedule).
func FormatFigure6(rows []Figure6Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 6: energy of ordering schemes normalised w.r.t. near-optimal")
	fmt.Fprintln(&b, "# graphs |  Random  |   LTF    | pUBS(imminent) | pUBS(all released) | samples")
	fmt.Fprintln(&b, "---------+----------+----------+----------------+--------------------+--------")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d | %8.3f | %8.3f | %14.3f | %18.3f | %6d\n",
			r.Graphs, r.Random, r.LTF, r.PUBSImminent, r.PUBSAllReleased, r.Samples)
	}
	return b.String()
}

// FormatTable2 renders Table 2 rows as a plain-text table matching the
// paper's layout.
func FormatTable2(rows []Table2Row, batteryName string, utilization float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: scheduling schemes at %.0f%% utilisation (battery model: %s)\n", utilization*100, batteryName)
	fmt.Fprintln(&b, "Scheme            | DVS Algo | Priority | Ready list    | Charge (mAh) | Life (min) | Energy/hp (J) | Avg I (A)")
	fmt.Fprintln(&b, "------------------+----------+----------+---------------+--------------+------------+---------------+----------")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-17s | %-8s | %-8s | %-13s | %12.0f | %10.1f | %13.3f | %8.3f\n",
			r.Scheme, r.DVS, r.Priority, r.ReadyList, r.ChargeDeliveredMAh, r.BatteryLifeMin, r.EnergyPerHyperperiodJ, r.AverageCurrentA)
	}
	return b.String()
}

// FormatCurve renders the load versus delivered-capacity curves as a
// plain-text table with one column per battery model.
func FormatCurve(series []CurveSeries) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Load vs delivered capacity (mAh)")
	header := "current (A)"
	for _, s := range series {
		header += fmt.Sprintf(" | %12s", s.Model)
	}
	fmt.Fprintln(&b, header)
	fmt.Fprintln(&b, strings.Repeat("-", len(header)))
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].Points {
		line := fmt.Sprintf("%11.3f", series[0].Points[i].Current)
		for _, s := range series {
			if i < len(s.Points) {
				line += fmt.Sprintf(" | %12.0f", s.Points[i].DeliveredMAh)
			} else {
				line += fmt.Sprintf(" | %12s", "-")
			}
		}
		fmt.Fprintln(&b, line)
	}
	return b.String()
}
