package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"battsched/internal/stats"
)

// TestRegistryNamesAndLookup checks that all six drivers self-register and
// that unknown names fail with an error listing the registered names.
func TestRegistryNamesAndLookup(t *testing.T) {
	want := []string{"ablation", "curve", "figure6", "grid", "table1", "table2"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name != name || d.Title == "" || d.Paper == "" || d.Run == nil {
			t.Fatalf("incomplete definition %+v", d)
		}
	}
	_, err := Lookup("bogus")
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Lookup(bogus) err = %v", err)
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("lookup error %q does not list %q", err, name)
		}
	}
	for _, name := range PaperExperiments() {
		if _, err := Lookup(name); err != nil {
			t.Fatalf("paper experiment %q not registered: %v", name, err)
		}
	}
	// A report of an unknown experiment has no table, and its footer is the
	// elapsed time alone.
	bogus := &Report{Experiment: "bogus"}
	if _, err := FormatReport(bogus); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("FormatReport(bogus) err = %v", err)
	}
	if got, want := Footer(bogus, 1500*time.Millisecond), "(1.5s)\n"; got != want {
		t.Fatalf("Footer(bogus) = %q, want %q", got, want)
	}
}

// TestArtifactRoundTrip checks that a Report survives the JSON artifact
// bit-for-bit: every accumulator state, sample list, label and count.
func TestArtifactRoundTrip(t *testing.T) {
	ctx := context.Background()
	var reports []*Report
	for _, name := range []string{"table2", "grid"} {
		rep, err := Run(ctx, name, Spec{Quick: true, Battery: "kibam"})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, reports); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, reports) {
		t.Fatalf("artifact round-trip changed the reports:\n%+v\n%+v", back, reports)
	}
	for _, bad := range badArtifacts {
		if reports, err := ReadArtifact(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadArtifact(%q) = %d reports, want an error", bad, len(reports))
		}
	}
	// Escapes and spacing WriteArtifact never writes read as json.Unmarshal
	// reads them.
	escaped := "\t" + `{ "version" : 1 ,"reports":[{"version":1,"experiment":"t\u00e9\uD83D\ude00\/\"\\\b\f\n\r\t\u0000","rows":[],"meta":{"k\u0041":""}}]}` + "\r\n"
	back, err = ReadArtifact(strings.NewReader(escaped))
	if err != nil {
		t.Fatalf("ReadArtifact(%q): %v", escaped, err)
	}
	var ref jsonArtifact
	if err := json.Unmarshal([]byte(escaped), &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ref.Reports) {
		t.Fatalf("ReadArtifact(%q) = %+v, json.Unmarshal reads %+v", escaped, back[0], ref.Reports[0])
	}
}

// badArtifacts are inputs ReadArtifact must reject: a foreign version, a
// truncated envelope, data after the artifact (garbage, a second artifact),
// a key that matches a field only when case is folded, an unknown field, a
// repeated field or map key, and strings that are not valid UTF-8 text.
var badArtifacts = []string{
	`{"version":99,"reports":[]}`,
	`{`,
	`{"version":1,"reports":[]} garbage`,
	`{"version":1,"reports":[]}{"version":1,"reports":[{"version":1,"experiment":"table2","rows":[]}]}`,
	`{"VERSION":1,"reports":[]}`,
	`{"version":1,"reports":[],"extra":0}`,
	`{"version":1,"reports":[{"version":1,"experiment":"table2","rows":[],"bogus":{}}]}`,
	`{"version":1,"version":1,"reports":[]}`,
	`{"version":1,"reports":[{"version":1,"experiment":"table2","rows":[{"key":"EDF","cells":{"a":{},"a":{}}}]}]}`,
	"{\"version\":1,\"reports\":[{\"version\":1,\"experiment\":\"t\xffble2\",\"rows\":[]}]}",
	`{"version":1,"reports":[{"version":1,"experiment":"\ud800","rows":[]}]}`,
}

// TestMergeReportsValidation covers the merge error paths: wrong shard
// counts, duplicate shards, unsharded inputs, configuration mismatches and
// cells without samples.
func TestMergeReportsValidation(t *testing.T) {
	ctx := context.Background()
	shard := func(i, n int, spec Spec) *Report {
		spec.Shard = Shard{Index: i, Count: n}
		rep, err := Run(ctx, "table2", spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	spec := Spec{Quick: true, Battery: "kibam"}
	s0, s1 := shard(0, 2, spec), shard(1, 2, spec)

	if _, err := MergeReports(nil); err == nil {
		t.Fatal("expected error for empty merge")
	}
	if _, err := MergeReports([]*Report{s0}); err == nil {
		t.Fatal("expected error for missing shard")
	}
	if _, err := MergeReports([]*Report{s0, s0}); err == nil {
		t.Fatal("expected error for duplicate shard")
	}
	full, err := Run(ctx, "table2", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeReports([]*Report{full, s1}); err == nil {
		t.Fatal("expected error for unsharded partial")
	}
	otherSeed := spec
	otherSeed.Seed = 99
	if _, err := MergeReports([]*Report{s0, shard(1, 2, otherSeed)}); err == nil {
		t.Fatal("expected error for configuration mismatch")
	}
	// A partial cell without one sample per observation cannot be replayed,
	// so it fails the merge instead of merging approximately.
	stateOnly := *s1
	stateOnly.Rows = slices.Clone(s1.Rows)
	stateOnly.Rows[0].Cells = maps.Clone(s1.Rows[0].Cells)
	stateOnly.Rows[0].Cells["life_min"] = Cell{State: s1.Rows[0].Cells["life_min"].State}
	if _, err := MergeReports([]*Report{s0, &stateOnly}); err == nil || !strings.Contains(err.Error(), "does not merge") {
		t.Fatalf("sample-free partial cell: err = %v, want a merge error", err)
	}
	gridShard, err := Run(ctx, "grid", Spec{Quick: true, RunOptions: RunOptions{Shard: Shard{Index: 1, Count: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeReports([]*Report{s0, gridShard}); err == nil {
		t.Fatal("expected error for mixed experiments")
	}
	// A cell only one partial carries fails the merge, whichever shard has it.
	withBogus := func(r *Report) *Report {
		c := *r
		c.Rows = slices.Clone(r.Rows)
		c.Rows[0].Cells = maps.Clone(r.Rows[0].Cells)
		c.Rows[0].Cells["bogus"] = Cell{}
		return &c
	}
	for i := range 2 {
		parts := []*Report{s0, s1}
		parts[i] = withBogus(parts[i])
		if _, err := MergeReports(parts); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Fatalf("extra cell in shard %d: err = %v, want an error naming the cell", i, err)
		}
	}
	// Order independence: merging [s1, s0] equals merging [s0, s1].
	a, err := MergeReports([]*Report{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MergeReports([]*Report{s1, s0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("merge is order-dependent")
	}
}

// TestCurveDoesNotShard pins the deterministic curve's shard rejection.
func TestCurveDoesNotShard(t *testing.T) {
	_, err := Run(context.Background(), "curve", Spec{Quick: true, RunOptions: RunOptions{Shard: Shard{Index: 0, Count: 2}}})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if _, err := Run(context.Background(), "table2", Spec{Quick: true, RunOptions: RunOptions{Shard: Shard{Index: 5, Count: 2}}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad shard err = %v", err)
	}
}

// TestFooter checks the summary line printed after each table: the first
// row's sample count and the elapsed seconds.
func TestFooter(t *testing.T) {
	rep := &Report{Experiment: "table2", Rows: []ReportRow{
		{Key: "BAS-2", Cells: map[string]Cell{"charge_mah": {State: stats.State{N: 3}}}},
	}}
	if got, want := Footer(rep, 1500*time.Millisecond), "(3 task-graph sets, 1.5s)\n\n"; got != want {
		t.Fatalf("Footer = %q, want %q", got, want)
	}
}
