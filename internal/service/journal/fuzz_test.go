package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// replayed is a backlog in comparable form: each accept record with the
// leases that json:"-" keeps out of its encoding.
func replayed(t *testing.T, backlog []Accept) []byte {
	t.Helper()
	type entry struct {
		Accept Accept
		Leases []Lease
	}
	out := make([]entry, len(backlog))
	for i, a := range backlog {
		out[i] = entry{a, a.Leases}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reaccepted accepts a job ID again after its done record. Open returned it
// twice in the backlog, so a daemon replayed the job twice, while the file it
// compacted held it once.
const reaccepted = `{"op":"accept","id":"job-000001","experiment":"table2"}
{"op":"done","id":"job-000001"}
{"op":"accept","id":"job-000001","experiment":"table2"}
`

// TestReacceptedIDReplaysOnce replays a job ID accepted, finished and
// accepted again as one backlog entry.
func TestReacceptedIDReplaysOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(reaccepted), 0o644); err != nil {
		t.Fatal(err)
	}
	j, backlog := openT(t, path)
	defer j.Close()
	if len(backlog) != 1 || backlog[0].ID != "job-000001" {
		t.Fatalf("backlog = %+v, want job-000001 once", backlog)
	}
}

// wrongTypeMiddle holds three complete accept records, the middle one with a
// string where the shard count belongs. Replay once took that line for a
// crash-torn tail and stopped there, and the compaction inside Open then
// deleted the third record from the file.
const wrongTypeMiddle = `{"op":"accept","id":"job-000001","experiment":"table2"}
{"op":"accept","id":"job-000002","experiment":"table2","shards":"2"}
{"op":"accept","id":"job-000003","experiment":"table2"}
`

// TestUndecodableMiddleLineFailsOpen pins that only the last line counts as
// torn: a line that does not decode, with a record after it, fails Open with
// an error naming the line, and the file keeps its bytes.
func TestUndecodableMiddleLineFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(wrongTypeMiddle), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, false); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Open = %v, want an error naming line 2", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != wrongTypeMiddle {
		t.Fatalf("Open rewrote the journal to:\n%s", after)
	}
}

// wrongTypeLast holds two complete accept records, the second with a string
// where the shard count belongs, and the newline that ends every record.
// Replay once took that line for a crash-torn tail, replayed one job and
// compacted the file to one line.
const wrongTypeLast = `{"op":"accept","id":"job-000001","experiment":"table2"}
{"op":"accept","id":"job-000002","experiment":"table2","shards":"2"}
`

// TestUndecodableCompleteLastLineFailsOpen pins that a last line counts as
// torn only without its newline: a record and its newline are one write, so
// a complete last line that does not decode fails Open with an error naming
// it, and the file keeps its bytes.
func TestUndecodableCompleteLastLineFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(wrongTypeLast), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, false); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("Open = %v, want an error naming line 2", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != wrongTypeLast {
		t.Fatalf("Open rewrote the journal to:\n%s", after)
	}
}

// FuzzJournalOpen writes arbitrary bytes as journal.jsonl. Open either fails
// and leaves the file byte for byte as it was, or opens; a second Open of the
// file the first one compacted then returns the same backlog, leases
// included.
func FuzzJournalOpen(f *testing.F) {
	f.Add([]byte(`{"op":"accept","id":"job-000001","experiment":"table2","spec":{"quick":true,"battery":"kibam"},"shards":2,"hash":"ab12","created":"2026-01-02T03:04:05.123Z","trace":"t-1"}
{"op":"lease","id":"job-000001","lease":{"unit":"0/2","worker":"http://127.0.0.1:8345","remote":"job-000007","expires":"2026-01-02T03:04:07Z"}}
{"op":"accept","id":"job-000002","experiment":"grid","spec":{"quick":true},"shard":"1/3"}
{"op":"lease","id":"job-000001","lease":{"unit":"1/2","worker":"http://127.0.0.1:8346"}}
{"op":"done","id":"job-000002"}
{"op":"accept","id":"job-000003","experiment":"table2","spec":{"qu`))
	f.Add([]byte(reaccepted))
	f.Add([]byte(wrongTypeMiddle))
	f.Add([]byte(wrongTypeLast))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, backlog, err := Open(path, false)
		if err != nil {
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("Open failed (%v) and changed the file (%v)", err, rerr)
			}
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, again, err := Open(path, false)
		if err != nil {
			t.Fatalf("reopening the compacted journal: %v", err)
		}
		defer j2.Close()
		if a, b := replayed(t, backlog), replayed(t, again); !bytes.Equal(a, b) {
			t.Fatalf("backlog changed across a compaction:\n%s\nthen\n%s", a, b)
		}
	})
}
