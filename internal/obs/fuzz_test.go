package obs

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseText checks that ParseText never panics on any input, and that a
// registry gauge with any label value and any value renders to text that
// parses back to both (NaN as NaN). Seeds: a worker daemon's /metrics after
// one computed, one coalesced and one cached job, and a worker URL label
// holding a '}', which -fleet and POST /v1/workers accept.
func FuzzParseText(f *testing.F) {
	recorded, err := os.ReadFile(filepath.Join("testdata", "service_metrics.txt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded, "http://127.0.0.1:8345", 1.0)
	f.Add([]byte(`battsched_worker_up{worker="http://h:1/p}q"} 1`+"\n"), "http://h:1/p}q", 0.0)
	f.Add([]byte(`x{a="\"}\\",b="}"} NaN`+"\n"), `"}\`, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, label string, v float64) {
		ParseText(data)

		r := NewRegistry()
		r.Gauge("fuzz_gauge", "Fuzzed.", "worker", label).Set(v)
		text := r.Render()
		samples, err := ParseText(text)
		if err != nil {
			t.Fatalf("rendered gauge does not parse: %v\n%s", err, text)
		}
		s, ok := Find(samples, "fuzz_gauge")
		if !ok || len(samples) != 1 {
			t.Fatalf("parsed %d samples %+v from\n%s", len(samples), samples, text)
		}
		if got := s.Labels["worker"]; got != label {
			t.Fatalf("label = %q, want %q", got, label)
		}
		if s.Value != v && !(math.IsNaN(s.Value) && math.IsNaN(v)) {
			t.Fatalf("value = %v, want %v", s.Value, v)
		}
	})
}
