package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func openT(t *testing.T, path string) (*Journal, []Accept) {
	t.Helper()
	j, backlog, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	return j, backlog
}

func accept(id string) Accept {
	return Accept{ID: id, Experiment: "table2", Spec: json.RawMessage(`{"quick":true}`), Shards: 2}
}

// TestAcceptDoneReplay pins the core WAL contract: accepted jobs replay on
// reopen until marked done, in admission order, with their payload intact.
func TestAcceptDoneReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, backlog := openT(t, path)
	if len(backlog) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(backlog))
	}
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		if err := j.Accept(accept(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Done("job-000002"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, backlog := openT(t, path)
	defer j2.Close()
	if len(backlog) != 2 || backlog[0].ID != "job-000001" || backlog[1].ID != "job-000003" {
		t.Fatalf("replay = %+v, want jobs 1 and 3 in order", backlog)
	}
	if backlog[0].Experiment != "table2" || backlog[0].Shards != 2 || string(backlog[0].Spec) != `{"quick":true}` {
		t.Fatalf("replayed record lost payload: %+v", backlog[0])
	}
}

// TestCompactionDropsFinished checks that Close compacts the file down to
// live accept records only.
func TestCompactionDropsFinished(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := openT(t, path)
	for _, id := range []string{"job-000001", "job-000002"} {
		if err := j.Accept(accept(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Done("job-000001"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if strings.Contains(text, "job-000001") || strings.Contains(text, `"done"`) {
		t.Fatalf("compacted journal still holds finished records:\n%s", text)
	}
	if !strings.Contains(text, "job-000002") {
		t.Fatalf("compacted journal lost the live record:\n%s", text)
	}
}

// TestTruncatedTailTolerated simulates a crash mid-append: a malformed final
// line must not poison replay of the intact prefix.
func TestTruncatedTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := openT(t, path)
	if err := j.Accept(accept("job-000001")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, backlog := openT(t, path)
	defer j2.Close()
	if len(backlog) != 1 || backlog[0].ID != "job-000001" {
		t.Fatalf("replay after truncated tail = %+v", backlog)
	}
}

// TestOverlongLineFailsOpen pins that a line too long to scan is not taken
// for a crash-truncated tail: Open fails naming the line, and the file keeps
// its bytes, including the valid record after it. (Compacting there once
// erased every job from that line on.)
func TestOverlongLineFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	long, err := json.Marshal(record{Op: "accept", Accept: Accept{ID: "job-000001", Trace: strings.Repeat("<", 1<<20)}})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(record{Op: "accept", Accept: accept("job-000002")})
	if err != nil {
		t.Fatal(err)
	}
	if len(long) <= 4<<20 {
		t.Fatalf("first line is %d bytes, want over 4 MiB", len(long))
	}
	data := append(append(append(long, '\n'), valid...), '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, false); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("Open = %v, want an error naming line 1", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("Open rewrote the journal: %d bytes, want the %d it had", len(after), len(data))
	}
}

// TestDoneUnknownIDNoop pins that Done of a never-journaled ID (cached
// submissions) is a no-op.
func TestDoneUnknownIDNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := openT(t, path)
	defer j.Close()
	if err := j.Done("job-999999"); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("Len = %d", j.Len())
	}
}

// TestRuntimeCompactionThreshold drives past compactEvery completions and
// checks the file stays bounded by the live set.
func TestRuntimeCompactionThreshold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := openT(t, path)
	defer j.Close()
	for i := 0; i < compactEvery+8; i++ {
		id := Accept{ID: string(rune('a'+i%26)) + "-job", Experiment: "table2"}
		id.ID = "job-" + strings.Repeat("0", 3) + string(rune('a'+i%26)) + string(rune('0'+i%10))
		if err := j.Accept(id); err != nil {
			t.Fatal(err)
		}
		if err := j.Done(id.ID); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines > compactEvery {
		t.Fatalf("journal grew to %d lines despite compaction", lines)
	}
}

// TestLeaseReplay pins the coordinator-facing lease contract: the latest lease
// per (job, unit) replays attached to its Accept in unit order, Done clears a
// job's leases, leases of unknown jobs are a no-op, and compaction (Close)
// preserves live leases.
func TestLeaseReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := openT(t, path)
	if err := j.Accept(accept("job-000001")); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(accept("job-000002")); err != nil {
		t.Fatal(err)
	}
	// Two leases of the same unit: the later one wins on replay.
	if err := j.Lease("job-000001", Lease{Unit: "1/2", Worker: "http://a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Lease("job-000001", Lease{Unit: "0/2", Worker: "http://a", Remote: "job-000007"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Lease("job-000001", Lease{Unit: "1/2", Worker: "http://b", Remote: "job-000003"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Lease("job-000002", Lease{Unit: "0/2", Worker: "http://b"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Lease("job-999999", Lease{Unit: "0/2", Worker: "http://c"}); err != nil {
		t.Fatal(err) // unknown job: no-op, no error
	}
	if err := j.Done("job-000002"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, backlog := openT(t, path)
	defer j2.Close()
	if len(backlog) != 1 || backlog[0].ID != "job-000001" {
		t.Fatalf("replay = %+v, want job-000001 only", backlog)
	}
	leases := backlog[0].Leases
	if len(leases) != 2 {
		t.Fatalf("replayed %d leases, want 2: %+v", len(leases), leases)
	}
	if leases[0].Unit != "0/2" || leases[0].Worker != "http://a" || leases[0].Remote != "job-000007" {
		t.Fatalf("lease 0 = %+v", leases[0])
	}
	if leases[1].Unit != "1/2" || leases[1].Worker != "http://b" || leases[1].Remote != "job-000003" {
		t.Fatalf("lease 1 = %+v, want the later http://b lease to win", leases[1])
	}
}

// TestShardFieldRoundTrips pins that a unit-level job's shard slice survives
// replay (workers journal federated shard units with Shard set).
func TestShardFieldRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := openT(t, path)
	rec := accept("job-000001")
	rec.Shards = 0
	rec.Shard = "2/4"
	if err := j.Accept(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, backlog := openT(t, path)
	defer j2.Close()
	if len(backlog) != 1 || backlog[0].Shard != "2/4" {
		t.Fatalf("replay = %+v, want Shard 2/4", backlog)
	}
}

// TestFsyncModeRoundTrips checks the fsync journal behaves identically at the
// API level (append, lease, replay, compaction) — the mode only changes
// durability, never content.
func TestFsyncModeRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(accept("job-000001")); err != nil {
		t.Fatal(err)
	}
	if err := j.Lease("job-000001", Lease{Unit: "0/2", Worker: "http://a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, backlog, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(backlog) != 1 || len(backlog[0].Leases) != 1 {
		t.Fatalf("fsync replay = %+v", backlog)
	}
}

// benchAppend measures the per-record append cost in the given durability
// mode; the numbers feed the -journal-fsync flag documentation.
func benchAppend(b *testing.B, fsync bool) {
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	j, _, err := Open(path, fsync)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := accept("job-000001")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ID = "job-" + strconv.Itoa(i)
		if err := j.Accept(rec); err != nil {
			b.Fatal(err)
		}
		if err := j.Done(rec.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppend(b *testing.B)      { benchAppend(b, false) }
func BenchmarkAppendFsync(b *testing.B) { benchAppend(b, true) }
