package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
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

// FuzzReadEvents writes arbitrary bytes as an events.jsonl. ReadEvents never
// panics on it; every event it returns marshals and reads back equal (the
// same instant, the same fields); and filtering on a trace id returns
// exactly the events that carry it, in log order. Seeds: the coordinator's
// event log of a quick 2-shard federated table2 job, whole and with a torn
// last line.
func FuzzReadEvents(f *testing.F) {
	recorded, err := os.ReadFile(filepath.Join("testdata", "events.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	const trace = "4f558045e3e4dbb8e8d3dc8057a061cc"
	f.Add(recorded, trace)
	f.Add(recorded[:len(recorded)-40], "")
	same := func(a, b Event) bool {
		ta, tb := a.Time, b.Time
		a.Time, b.Time = time.Time{}, time.Time{}
		return a == b && ta.Equal(tb)
	}
	f.Fuzz(func(t *testing.T, data []byte, trace string) {
		path := filepath.Join(t.TempDir(), "events.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		all, err := ReadEvents(path, "")
		if err != nil {
			t.Fatal(err)
		}
		var want []Event
		for _, e := range all {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("event %+v does not marshal: %v", e, err)
			}
			var back Event
			if err := json.Unmarshal(line, &back); err != nil || !same(back, e) {
				t.Fatalf("event %+v marshals to %s, which reads back as %+v (%v)", e, line, back, err)
			}
			if trace == "" || e.Trace == trace {
				want = append(want, e)
			}
		}
		got, err := ReadEvents(path, trace)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, same) {
			t.Fatalf("trace %q filter returned %d events, want the %d of %d that carry it", trace, len(got), len(want), len(all))
		}
	})
}
