// Package obs is the dependency-free observability substrate shared by the
// worker daemon, the federation coordinator, and the compute core: a
// concurrent metrics registry rendered in Prometheus text exposition format
// (counters and histograms with fixed buckets, plus callback-backed gauges
// and counters so /metrics and /healthz read the same source fields),
// trace-id propagation helpers (X-Trace-Id), a JSONL structured event log,
// and an atomic counter bundle for the engine/battery hot path.
//
// Locking contract: metric mutation (Counter.Inc, Histogram.Observe) is
// lock-free after creation and safe on any hot path. Registration (Counter,
// Histogram, GaugeFunc, CounterFunc) takes the registry write lock;
// rendering takes the read lock and invokes registered callbacks while
// holding it. Callbacks may acquire application locks, so callers must never
// register new series while holding a lock a callback also takes — register
// up front, or before taking the application lock.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type names as rendered in # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefBuckets are the default latency histogram bounds in seconds, spanning
// sub-millisecond handler work through multi-minute shard units.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Registry is a concurrent metrics registry. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family groups every labelled series of one metric name under a single
// HELP/TYPE header.
type family struct {
	name   string
	help   string
	typ    string
	series map[string]metric // key: rendered label suffix ("" for unlabelled)
}

// metric is one labelled series; writeTo renders its sample lines.
type metric interface {
	writeTo(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter is a monotonically increasing counter. Mutation is a single atomic
// add; safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) writeTo(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// funcMetric is a callback-backed series evaluated at render time. Backing a
// gauge (or counter) with the same field /healthz reports makes the two
// endpoints agree by construction.
type funcMetric struct{ f func() float64 }

func (m funcMetric) writeTo(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(m.f()))
}

// Histogram is a fixed-bucket histogram. Observe is a binary search plus
// three atomic adds — no allocation, safe for concurrent use.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	count   atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) writeTo(w io.Writer, name, labels string) {
	// _bucket series carry an extra le label; splice it into the label set.
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(labels, "le", formatFloat(b)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(labels, "le", "+Inf"), h.count.Load())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// Counter returns (creating if needed) the counter series name{labels...}.
// labels are alternating key, value pairs. Panics on a type conflict with an
// existing family of the same name.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m := r.getOrCreate(name, help, typeCounter, labels, func() metric { return &Counter{} })
	return m.(*Counter)
}

// Histogram returns (creating if needed) the histogram series
// name{labels...} with the given ascending bucket bounds (nil selects
// DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	m := r.getOrCreate(name, help, typeHistogram, labels, func() metric {
		return &Histogram{bounds: buckets, counts: make([]atomic.Uint64, len(buckets))}
	})
	return m.(*Histogram)
}

// GaugeFunc registers a gauge series whose value is f(), evaluated at render
// time under the registry read lock (see the package locking contract).
// Re-registering the same name and labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...string) {
	r.setFunc(name, help, typeGauge, f, labels)
}

// CounterFunc registers a counter series whose value is f(), evaluated at
// render time. f must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...string) {
	r.setFunc(name, help, typeCounter, f, labels)
}

func (r *Registry) setFunc(name, help, typ string, f func() float64, labels []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.familyLocked(name, help, typ)
	fam.series[labelString(labels)] = funcMetric{f}
}

func (r *Registry) getOrCreate(name, help, typ string, labels []string, mk func() metric) metric {
	key := labelString(labels)
	r.mu.RLock()
	if fam, ok := r.families[name]; ok {
		if fam.typ != typ {
			r.mu.RUnlock()
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, fam.typ))
		}
		if m, ok := fam.series[key]; ok {
			r.mu.RUnlock()
			return m
		}
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.familyLocked(name, help, typ)
	if m, ok := fam.series[key]; ok {
		return m
	}
	m := mk()
	fam.series[key] = m
	return m
}

func (r *Registry) familyLocked(name, help, typ string) *family {
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, series: make(map[string]metric)}
		r.families[name] = fam
	} else if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, fam.typ))
	}
	return fam
}

// WriteTo renders the registry in Prometheus text exposition format:
// families sorted by name, series sorted by label set, histograms as
// cumulative _bucket/_sum/_count.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var buf strings.Builder
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := r.families[name]
		fmt.Fprintf(&buf, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(&buf, "# TYPE %s %s\n", fam.name, fam.typ)
		keys := make([]string, 0, len(fam.series))
		for k := range fam.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fam.series[k].writeTo(&buf, fam.name, k)
		}
	}
	r.mu.RUnlock()
	n, err := io.WriteString(w, buf.String())
	return int64(n), err
}

// Handler returns an http.Handler serving the registry at GET /metrics in
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

// labelString renders alternating key, value pairs as a sorted, escaped
// Prometheus label suffix: {a="x",b="y"}. Empty labels render as "".
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list (want key, value pairs)")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// spliceLabel adds one key="value" pair into a rendered label suffix,
// preserving the existing pairs (used for histogram le labels).
func spliceLabel(labels, key, value string) string {
	pair := key + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients do: integers
// without a decimal point, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
