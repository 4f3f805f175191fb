// Package trace records what the scheduler executed: an ordered list of
// execution slices (which node ran, at which frequency, drawing which battery
// current) plus idle gaps. Traces back the paper's Figure 4 and Figure 5
// style execution diagrams and can be rendered as an ASCII Gantt chart.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Slice is one maximal interval during which the processor state was
// constant: either executing a particular node at a particular frequency or
// idling.
type Slice struct {
	// Start is the absolute start time in seconds.
	Start float64
	// Duration in seconds (> 0).
	Duration float64
	// Idle reports whether the processor was idle during the slice.
	Idle bool
	// GraphIndex and Node identify the executing node (valid when !Idle).
	GraphIndex int
	Node       int
	// Label is a human-readable node label ("T1.n3").
	Label string
	// Instance is the index of the task-graph instance (job number).
	Instance int
	// Frequency is the processor frequency in Hz (0 when idle).
	Frequency float64
	// Current is the battery current in amperes during the slice.
	Current float64
}

// End returns the absolute end time of the slice.
func (s Slice) End() float64 { return s.Start + s.Duration }

// Trace is an ordered sequence of slices.
type Trace struct {
	Slices []Slice
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Reset empties the trace while keeping the slice capacity, so a reused trace
// stops allocating once it has grown to its steady-state size. Callers holding
// the old Slices observe them being overwritten by the next Append sequence.
func (t *Trace) Reset() { t.Slices = t.Slices[:0] }

// Append adds a slice, merging it with the previous one when both describe
// the same activity at the same frequency and current and are contiguous.
func (t *Trace) Append(s Slice) {
	if s.Duration <= 0 {
		return
	}
	if n := len(t.Slices); n > 0 {
		p := &t.Slices[n-1]
		contiguous := math.Abs(p.End()-s.Start) <= 1e-9*math.Max(1, math.Abs(s.Start))
		same := p.Idle == s.Idle && p.GraphIndex == s.GraphIndex && p.Node == s.Node &&
			p.Instance == s.Instance && nearly(p.Frequency, s.Frequency) && nearly(p.Current, s.Current)
		if contiguous && same {
			p.Duration += s.Duration
			return
		}
	}
	t.Slices = append(t.Slices, s)
}

func nearly(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// Duration returns the total time covered by the trace (end of last slice
// minus start of first), or 0 for an empty trace.
func (t *Trace) Duration() float64 {
	if len(t.Slices) == 0 {
		return 0
	}
	return t.Slices[len(t.Slices)-1].End() - t.Slices[0].Start
}

// BusyTime returns the total non-idle time.
func (t *Trace) BusyTime() float64 {
	var d float64
	for _, s := range t.Slices {
		if !s.Idle {
			d += s.Duration
		}
	}
	return d
}

// IdleTime returns the total idle time.
func (t *Trace) IdleTime() float64 {
	var d float64
	for _, s := range t.Slices {
		if s.Idle {
			d += s.Duration
		}
	}
	return d
}

// FrequencyIsLocallyNonIncreasing reports whether, within every window of
// length `window` seconds aligned to the trace start, the execution frequency
// never increases from one busy slice to the next (idle slices are ignored).
// This is the scheduler-level statement of battery guideline 1.
func (t *Trace) FrequencyIsLocallyNonIncreasing(window float64) bool {
	if len(t.Slices) == 0 {
		return true
	}
	if window <= 0 {
		window = math.Inf(1)
	}
	start := t.Slices[0].Start
	prev := math.Inf(1)
	windowIdx := -1
	for _, s := range t.Slices {
		if s.Idle {
			continue
		}
		idx := int((s.Start - start) / window)
		if idx != windowIdx {
			windowIdx = idx
			prev = math.Inf(1)
		}
		if s.Frequency > prev+1e-6 {
			return false
		}
		prev = s.Frequency
	}
	return true
}

// GanttOptions control Render.
type GanttOptions struct {
	// Width is the number of character cells representing the full trace
	// duration (default 80).
	Width int
	// ShowFrequency appends a second line per row with the frequency level.
	ShowFrequency bool
}

// Render writes an ASCII Gantt chart of the trace to w, one row per
// (graph, node) pair plus an "idle" row, using '#' marks for execution.
func (t *Trace) Render(w io.Writer, opts GanttOptions) error {
	if opts.Width <= 0 {
		opts.Width = 80
	}
	if len(t.Slices) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	start := t.Slices[0].Start
	total := t.Duration()
	if total <= 0 {
		total = 1
	}
	cell := total / float64(opts.Width)

	type rowKey struct {
		graph, node int
		label       string
	}
	rowsSeen := map[rowKey]bool{}
	var rows []rowKey
	for _, s := range t.Slices {
		if s.Idle {
			continue
		}
		k := rowKey{s.GraphIndex, s.Node, s.Label}
		if !rowsSeen[k] {
			rowsSeen[k] = true
			rows = append(rows, k)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].graph != rows[j].graph {
			return rows[i].graph < rows[j].graph
		}
		return rows[i].node < rows[j].node
	})

	labelWidth := 6
	for _, r := range rows {
		if len(r.label) > labelWidth {
			labelWidth = len(r.label)
		}
	}
	fill := func(cells []byte, s Slice, mark byte) {
		from := int((s.Start - start) / cell)
		to := int(math.Ceil((s.End() - start) / cell))
		if from < 0 {
			from = 0
		}
		if to > len(cells) {
			to = len(cells)
		}
		for i := from; i < to; i++ {
			cells[i] = mark
		}
	}
	for _, r := range rows {
		cells := repeatByte(' ', opts.Width)
		for _, s := range t.Slices {
			if s.Idle || s.GraphIndex != r.graph || s.Node != r.node {
				continue
			}
			fill(cells, s, '#')
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", labelWidth, r.label, string(cells)); err != nil {
			return err
		}
	}
	idleCells := repeatByte(' ', opts.Width)
	for _, s := range t.Slices {
		if s.Idle {
			fill(idleCells, s, '.')
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s |%s|\n", labelWidth, "idle", string(idleCells)); err != nil {
		return err
	}
	if opts.ShowFrequency {
		freqCells := repeatByte(' ', opts.Width)
		var fmax float64
		for _, s := range t.Slices {
			if s.Frequency > fmax {
				fmax = s.Frequency
			}
		}
		for _, s := range t.Slices {
			if s.Idle || fmax <= 0 {
				continue
			}
			level := byte('1' + int(math.Min(8, math.Round(s.Frequency/fmax*8))))
			fill(freqCells, s, level)
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|  (1=low .. 9=fmax)\n", labelWidth, "freq", string(freqCells)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  0%*s%.4gs\n", labelWidth, "", opts.Width-1, "", total)
	return err
}

func repeatByte(b byte, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = b
	}
	return s
}
