package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"battsched/internal/stats"
)

// jsonArtifact is the artifact envelope under encoding/json, the reference
// the codec in artifact.go is pinned against.
type jsonArtifact struct {
	Version int       `json:"version"`
	Reports []*Report `json:"reports"`
}

// referenceArtifact renders reports the way encoding/json does.
func referenceArtifact(reports []*Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(jsonArtifact{Version: ReportVersion, Reports: reports})
	return buf.Bytes(), err
}

// checkMatchesReference fails unless WriteArtifact writes exactly the
// reference bytes of reports, and those read back to the same reports
// through ReadArtifact and json.Unmarshal alike.
func checkMatchesReference(t *testing.T, what string, reports []*Report) {
	t.Helper()
	want, err := referenceArtifact(reports)
	if err != nil {
		t.Fatalf("%s: encoding/json: %v", what, err)
	}
	var got bytes.Buffer
	if err := WriteArtifact(&got, reports); err != nil {
		t.Fatalf("%s: WriteArtifact: %v", what, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: WriteArtifact differs from encoding/json:\n--- got ---\n%s\n--- want ---\n%s", what, got.Bytes(), want)
	}
	for _, r := range reports {
		if r == nil || r.Version != ReportVersion {
			return // ReadArtifact rejects these by design
		}
	}
	back, err := ReadArtifact(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("%s: ReadArtifact of the reference bytes: %v", what, err)
	}
	var ref jsonArtifact
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ref.Reports) {
		t.Fatalf("%s: ReadArtifact and json.Unmarshal read different reports", what)
	}
}

// TestWriteArtifactMatchesEncodingJSON pins WriteArtifact byte for byte to
// encoding/json on the reports behind every golden, on random reports that
// fill every field (so a field added to Report, ShardInfo, ReportRow, Cell
// or stats.State but not to the codec fails here), and on the encoding's
// edge cases.
func TestWriteArtifactMatchesEncodingJSON(t *testing.T) {
	t.Run("goldens", func(t *testing.T) {
		ctx := context.Background()
		for _, name := range Names() {
			rep, err := Run(ctx, name, Spec{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesReference(t, name, []*Report{rep})
		}
		for _, battery := range []string{"kibam", "stochastic"} {
			rep, err := Run(ctx, "table2", Spec{Quick: true, Battery: battery})
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesReference(t, "table2 "+battery, []*Report{rep})
		}
		for _, file := range []string{"wider_reports.golden", "table2_grid_shard0of2.json"} {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			reports, err := ReadArtifact(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			checkMatchesReference(t, file, reports)
		}
	})

	t.Run("random", func(t *testing.T) {
		// testing/quick fills every exported field, nested ones included,
		// with non-zero values almost surely: strings of arbitrary code
		// points, floats across the whole finite range.
		cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
		if err := quick.Check(func(reports []*Report) bool {
			reports = slices.DeleteFunc(reports, func(r *Report) bool { return r == nil })
			for _, r := range reports {
				r.Version = ReportVersion
			}
			checkMatchesReference(t, "random reports", reports)
			return true
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("edges", func(t *testing.T) {
		str := func(s string) []*Report {
			return []*Report{{Version: ReportVersion, Experiment: s, Meta: map[string]string{s: s, "k": s},
				Rows: []ReportRow{{Key: s, Labels: map[string]string{s: s}, Cells: map[string]Cell{s: {}}}}}}
		}
		num := func(xs ...float64) []*Report {
			c := Cell{State: stats.State{N: -1, Mean: xs[0], M2: xs[0], Min: xs[0], Max: xs[0]}, Sets: []int{math.MinInt, 0, math.MaxInt}, Samples: xs}
			return []*Report{{Version: ReportVersion, Rows: []ReportRow{{Cells: map[string]Cell{"c": c}}}}}
		}
		control := make([]byte, 0, 0x21)
		for c := range byte(0x20) {
			control = append(control, c)
		}
		control = append(control, 0x7f)
		for name, reports := range map[string][]*Report{
			"html":              str(`<a href="x">&amp;</a>`),
			"quote, backslash":  str(`"\/`),
			"control bytes":     str(string(control)),
			"line separators":   str("a\u2028b\u2029c"),
			"invalid UTF-8":     str("a\xffb\xc3(\xed\xa0\x80z"),
			"multi-byte":        str("\u00e9\u20ac\U0001F600\ufffd"),
			"empty string":      str(""),
			"floats":            num(0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, -1e21, 1e20, 123456789e-15, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0/3),
			"nil reports":       nil,
			"no reports":        {},
			"nil report":        {nil},
			"empty containers":  {{Version: ReportVersion, Meta: map[string]string{}, Shard: &ShardInfo{}, Rows: []ReportRow{{Labels: map[string]string{}, Cells: map[string]Cell{}, Counts: map[string]int{}}}}},
			"nil containers":    {{Version: ReportVersion, Rows: []ReportRow{{}}}},
			"empty rows":        {{Version: ReportVersion, Rows: []ReportRow{}}},
			"empty cell slices": {{Version: ReportVersion, Rows: []ReportRow{{Cells: map[string]Cell{"c": {Sets: []int{}, Samples: []float64{}}}}}}},
		} {
			checkMatchesReference(t, name, reports)
		}
	})

	t.Run("non-finite", func(t *testing.T) {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			reports := []*Report{{Version: ReportVersion, Rows: []ReportRow{{Cells: map[string]Cell{"c": {Samples: []float64{1, x}}}}}}}
			var buf bytes.Buffer
			if err := WriteArtifact(&buf, reports); err == nil || buf.Len() != 0 {
				t.Fatalf("%v: WriteArtifact err = %v with %d bytes written, want an error and nothing written", x, err, buf.Len())
			}
			if _, err := referenceArtifact(reports); err == nil {
				t.Fatalf("%v: encoding/json accepted it", x)
			}
		}
	})
}
