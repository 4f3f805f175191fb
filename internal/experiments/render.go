package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"battsched/internal/stats"
)

// table is how a registered experiment's Report renders as its plain-text
// table: head, then one line per row, and the footer cmd/experiments prints
// after it. The head and the footer read the report, a row's columns read
// the row's key, labels, cells and counts. An entry a report lacks reads as
// its zero value, so every report ReadArtifact accepts renders.
type table struct {
	// head is a format over headArgs: the title and the column headings.
	head     string
	headArgs []reportValue
	// row is a format over cols, printed for each row in order.
	row  string
	cols []rowValue
	// rows, when set, renders the rows in place of row and cols.
	rows func(b *strings.Builder, r *Report)
	// foot is a format over footArgs and then the elapsed seconds.
	foot     string
	footArgs []reportValue
}

// A reportValue reads one value of a report for its head or footer.
type reportValue func(r *Report) any

// A rowValue reads one column of a report row.
type rowValue func(row *ReportRow) any

// key reads the row's key.
func key(row *ReportRow) any { return row.Key }

// keyInt reads the row's key as an integer (a task or graph count).
func keyInt(row *ReportRow) any {
	n, _ := strconv.Atoi(row.Key)
	return n
}

// label reads one of the row's labels.
func label(name string) rowValue { return func(row *ReportRow) any { return row.Labels[name] } }

// labelNumber reads one of the row's labels as a float.
func labelNumber(name string) rowValue {
	return func(row *ReportRow) any {
		v, _ := strconv.ParseFloat(row.Labels[name], 64)
		return v
	}
}

// mean reads the mean of one of the row's cells.
func mean(cell string) rowValue { return func(row *ReportRow) any { return row.Cells[cell].Mean } }

// cellN reads the number of observations of one of the row's cells.
func cellN(cell string) rowValue { return func(row *ReportRow) any { return row.Cells[cell].N } }

// ci95 reads the Student-t CI95 half-width of one of the row's cells.
func ci95(cell string) rowValue {
	return func(row *ReportRow) any {
		a := stats.FromState(row.Cells[cell].State)
		return a.Summary().CI95
	}
}

// count reads one of the row's counts.
func count(name string) rowValue { return func(row *ReportRow) any { return row.Counts[name] } }

// firstCellN reads the number of observations of one cell of the first row.
func firstCellN(cell string) reportValue {
	return func(r *Report) any {
		if len(r.Rows) == 0 {
			return 0
		}
		return r.Rows[0].Cells[cell].N
	}
}

// metaText reads one Meta entry.
func metaText(k string) reportValue { return func(r *Report) any { return r.Meta[k] } }

// metaNumber reads one Meta entry as a float.
func metaNumber(k string) reportValue { return func(r *Report) any { return metaFloat(r.Meta, k) } }

// read evaluates vs on r.
func read(vs []reportValue, r *Report) []any {
	out := make([]any, len(vs))
	for i, v := range vs {
		out[i] = v(r)
	}
	return out
}

// FormatReport renders a Report as its experiment's plain-text table, from
// the table the experiment registered; the historical paper tables come out
// byte for byte.
func FormatReport(r *Report) (string, error) {
	d, ok := registry[r.Experiment]
	if !ok {
		return "", fmt.Errorf("%w: no renderer for experiment %q", ErrBadConfig, r.Experiment)
	}
	t := &d.table
	var b strings.Builder
	fmt.Fprintf(&b, t.head, read(t.headArgs, r)...)
	if t.rows != nil {
		t.rows(&b, r)
		return b.String(), nil
	}
	args := make([]any, len(t.cols))
	for i := range r.Rows {
		for c, col := range t.cols {
			args[c] = col(&r.Rows[i])
		}
		fmt.Fprintf(&b, t.row, args...)
	}
	return b.String(), nil
}

// Footer renders the summary line cmd/experiments prints after each table
// (sample counts and wall-clock time), from the table the experiment
// registered. Unknown experiments get a generic timing line.
func Footer(r *Report, elapsed time.Duration) string {
	d, ok := registry[r.Experiment]
	if !ok {
		return fmt.Sprintf("(%.1fs)\n", elapsed.Seconds())
	}
	return fmt.Sprintf(d.table.foot, append(read(d.table.footArgs, r), elapsed.Seconds())...)
}
