package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadArtifact checks that every input either fails to read or yields
// the reports json.Unmarshal reads from it too (the strict reader accepts
// nothing encoding/json would read differently), whose WriteArtifact output
// reads back and re-writes to the same bytes, and that FormatReport and
// MergeReports handle without panicking. ReadArtifact decodes bytes from
// outside the process: the coordinator's worker partials and the files
// `experiments merge` is given. Seeds: the recorded quick table2 + grid
// partial of shard 0/2 on KiBaM (`run table2 grid -quick -battery kibam
// -shard 0/2 -o`), whose cells keep their per-set samples, a one-cell report
// and the inputs TestArtifactRoundTrip pins as bad.
func FuzzReadArtifact(f *testing.F) {
	recorded, err := os.ReadFile(filepath.Join("testdata", "table2_grid_shard0of2.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)
	f.Add([]byte(`{"version":1,"reports":[{"version":1,"experiment":"table2","rows":[{"key":"EDF","cells":{"life_min":{"n":1,"mean":2,"m2":0,"min":2,"max":2,"sets":[0],"samples":[2]}}}]}]}`))
	for _, bad := range badArtifacts {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reports, err := ReadArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		var ref jsonArtifact
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("ReadArtifact accepted what json.Unmarshal rejects: %v", err)
		}
		if !reflect.DeepEqual(reports, ref.Reports) {
			t.Fatalf("ReadArtifact and json.Unmarshal read different reports:\n%+v\nvs\n%+v", reports, ref.Reports)
		}
		var first, second bytes.Buffer
		if err := WriteArtifact(&first, reports); err != nil {
			t.Fatalf("WriteArtifact of a read artifact: %v", err)
		}
		back, err := ReadArtifact(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("WriteArtifact output does not read back: %v\n%s", err, first.Bytes())
		}
		if err := WriteArtifact(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-written artifact differs:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
		for _, r := range reports {
			_, _ = FormatReport(r)
		}
		_, _ = MergeReports(reports)
		// Each partial alone as the one shard of its run, so a partial's
		// cells, the recorded grid partial's included, reach the replay of
		// their samples; the partials of different experiments above fail
		// before it.
		for _, r := range reports {
			if r != nil && r.Shard != nil {
				one := *r
				one.Shard = &ShardInfo{Index: 0, Count: 1}
				_, _ = MergeReports([]*Report{&one})
			}
		}
	})
}
