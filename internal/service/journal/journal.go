// Package journal implements the experiment daemon's durable job journal: an
// append-only JSONL write-ahead log of accepted jobs in the daemon's cache
// directory. Every admitted job appends one "accept" record (id, experiment,
// wire-form spec, shard count) before its units enqueue; finalising a job
// appends a matching "done" record. On daemon start, Open replays the log and
// returns the accepted-but-unfinished records in admission order so the
// server resumes them instead of dropping the queue a restart (or crash)
// interrupted.
//
// The federation coordinator additionally journals unit leases: an op "lease"
// record per dispatch naming the job, the shard unit, the worker it went to
// and the remote job ID. Replay attaches the latest lease per unit to its
// Accept, so a restarted coordinator re-dispatches each unfinished unit to
// the worker that may still be computing it — the worker's singleflight
// coalescing and content-addressed cache then dedupe instead of re-running.
//
// The file is compacted — rewritten with only the live accept records (and
// their latest leases), via temp file + atomic rename — on Open, on Close,
// and after every compactEvery runtime completions, so it stays proportional
// to the backlog rather than the daemon's lifetime job count. Each record
// and its newline go out in one write, so a crash can tear only a final line
// that lacks its newline: replay tolerates an undecodable last line when the
// file does not end in a newline, and the compaction inside Open drops it.
// Any other line that does not decode, and any line over 4 MiB, fails Open
// instead, leaving the file untouched: compacting there would delete every
// record after it, or a complete record.
//
// By default writes go through the OS page cache without fsync: the journal
// survives process kills and restarts (the failure mode it exists for), not
// power loss. Opening with fsync enabled additionally syncs every record to
// stable storage before the append returns (and syncs compactions before the
// rename plus the directory after it), making accept/done/lease records
// power-loss durable at the cost of one fdatasync per record.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrCompaction tags compaction failures in errors returned by Done and
// Close, so callers can mirror them on a metrics registry separately from
// plain append failures (errors.Is unwraps it).
var ErrCompaction = errors.New("journal: compaction failed")

// compactEvery is the number of runtime "done" records after which the log is
// rewritten without its finished entries.
const compactEvery = 256

// Accept is one accepted job as journaled: enough to re-admit it after a
// restart under its original ID.
type Accept struct {
	// ID is the job ID the daemon issued ("job-000042").
	ID string `json:"id"`
	// Experiment is the registry name the job runs.
	Experiment string `json:"experiment"`
	// Spec is the job's wire-form spec (service.SpecRequest), kept opaque
	// here so the journal does not depend on the service package.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Shards is the requested shard fan-out (0 or 1 runs unsharded).
	Shards int `json:"shards,omitempty"`
	// Shard is the single shard slice of a unit-level job ("2/4"; "" for a
	// complete run). Set by workers executing one federated shard unit,
	// mutually exclusive with Shards > 1.
	Shard string `json:"shard,omitempty"`
	// Hash is the canonical spec hash at admission time — informational:
	// replay recomputes it, so a ResultsVersion bump between restarts is
	// honoured instead of trusted from disk.
	Hash string `json:"hash,omitempty"`
	// Created is the job's admission time.
	Created time.Time `json:"created,omitzero"`
	// Trace is the submission's trace id (obs.TraceHeader), retained so a
	// restarted daemon's resumed work stays attributable to the original
	// fleet-wide trace.
	Trace string `json:"trace,omitempty"`
	// Leases holds the latest journaled lease per still-leased unit of the
	// job. It is populated by Open during replay, never serialised with the
	// accept record itself (leases are separate records).
	Leases []Lease `json:"-"`
}

// Lease is one journaled unit dispatch of the federation coordinator.
type Lease struct {
	// Unit is the shard unit in CLI form ("2/4"; "" for the single unit of
	// an unsharded job).
	Unit string `json:"unit,omitempty"`
	// Worker is the base URL of the worker the unit was dispatched to.
	Worker string `json:"worker"`
	// Remote is the job ID the worker issued for the unit ("" until known).
	Remote string `json:"remote,omitempty"`
	// Expires is the lease deadline at journaling time — informational on
	// replay (a restarted coordinator re-leases), kept for inspection.
	Expires time.Time `json:"expires,omitzero"`
}

// record is one JSONL line: an Accept tagged "accept", a bare "done" ID, or a
// "lease" carrying the job ID plus the lease fields.
type record struct {
	Op string `json:"op"`
	Accept
	Lease *Lease `json:"lease,omitempty"`
}

// Journal is an open job journal. Construct with Open; all methods are safe
// for concurrent use.
type Journal struct {
	mu     sync.Mutex
	path   string
	fsync  bool
	f      *os.File
	live   map[string]Accept           // accepted, not yet done
	leases map[string]map[string]Lease // job ID -> unit -> latest lease
	order  []string                    // admission order of live (may hold stale IDs)
	dones  int                         // runtime completions since the last compaction
}

// Open opens (creating if missing) the journal at path, replays it, compacts
// it down to its live records, and returns the accepted-but-unfinished
// records in admission order, each with the latest journaled lease per unit
// attached. A line too long to scan, or one that does not decode and is not
// a torn last line (one without its newline), fails Open with an error naming
// it, and the file is left as it was. With fsync set, every subsequent append
// is synced to stable storage before it returns (power-loss durability);
// otherwise records ride the OS page cache (process-kill durability only).
func Open(path string, fsync bool) (*Journal, []Accept, error) {
	j := &Journal{
		path:   path,
		fsync:  fsync,
		live:   make(map[string]Accept),
		leases: make(map[string]map[string]Lease),
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n, torn := 0, 0
	var tornErr error
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if torn > 0 {
			// A crash tears only the last line, so an undecodable line with
			// a record after it is damage, not a torn tail, and compacting
			// now would delete every record from it on. Leave the file as
			// it is.
			return nil, nil, fmt.Errorf("journal: %s line %d: %w", path, torn, tornErr)
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			// A crash-truncated tail if no record follows and no newline
			// ends it: everything before it is intact, and the compaction
			// below drops the partial line.
			torn, tornErr = n, err
			continue
		}
		switch rec.Op {
		case "accept":
			if rec.ID == "" {
				continue
			}
			if _, dup := j.live[rec.ID]; !dup {
				j.order = append(j.order, rec.ID)
			}
			j.live[rec.ID] = rec.Accept
		case "done":
			delete(j.live, rec.ID)
			delete(j.leases, rec.ID)
		case "lease":
			if rec.Lease == nil || rec.ID == "" {
				continue
			}
			if _, ok := j.live[rec.ID]; !ok {
				continue // lease of a finished or unknown job
			}
			j.setLeaseLocked(rec.ID, *rec.Lease)
		}
	}
	if err := sc.Err(); err != nil {
		// A line the scanner cannot hold (over 4 MiB) is not a crash-truncated
		// tail: the records after it are intact, and compacting now would
		// drop them. Leave the file as it is.
		return nil, nil, fmt.Errorf("journal: %s line %d: %w", path, n+1, err)
	}
	if torn > 0 && bytes.HasSuffix(data, []byte("\n")) {
		// A record and its newline are one write, so a last line that ends
		// in one is complete and a crash did not tear it.
		return nil, nil, fmt.Errorf("journal: %s line %d: %w", path, torn, tornErr)
	}
	backlog := j.liveInOrder()
	if err := j.compactLocked(); err != nil {
		return nil, nil, err
	}
	return j, backlog, nil
}

// Accept appends one accepted job. It must be called before the job's units
// enqueue, so a crash between admission and execution still replays the job.
func (j *Journal) Accept(rec Accept) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec.Leases = nil
	if _, dup := j.live[rec.ID]; !dup {
		j.order = append(j.order, rec.ID)
	}
	j.live[rec.ID] = rec
	return j.appendLocked(record{Op: "accept", Accept: rec})
}

// Lease appends one unit dispatch of a live job; the latest lease per unit
// wins on replay. Leases of jobs the journal does not hold live (finished,
// never accepted) are a no-op.
func (j *Journal) Lease(jobID string, l Lease) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.live[jobID]; !ok {
		return nil
	}
	j.setLeaseLocked(jobID, l)
	return j.appendLocked(record{Op: "lease", Accept: Accept{ID: jobID}, Lease: &l})
}

// setLeaseLocked records the latest lease of one (job, unit). Callers hold
// j.mu (or run during single-threaded replay).
func (j *Journal) setLeaseLocked(jobID string, l Lease) {
	m, ok := j.leases[jobID]
	if !ok {
		m = make(map[string]Lease)
		j.leases[jobID] = m
	}
	m[l.Unit] = l
}

// Done marks one journaled job finished. Unknown IDs are a no-op (cached
// submissions are never journaled). Every compactEvery completions the log is
// rewritten without its finished entries.
func (j *Journal) Done(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.live[id]; !ok {
		return nil
	}
	delete(j.live, id)
	delete(j.leases, id)
	if err := j.appendLocked(record{Op: "done", Accept: Accept{ID: id}}); err != nil {
		return err
	}
	j.dones++
	if j.dones >= compactEvery {
		return j.compactLocked()
	}
	return nil
}

// Len returns the number of live (accepted, unfinished) records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.live)
}

// Close compacts the journal down to its live records — retaining jobs a
// shutdown abandoned, which is what lets the next daemon resume them — and
// releases the file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.compactLocked()
	if j.f != nil {
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
	}
	return err
}

// liveInOrder returns the live records in admission order, leases attached
// (sorted by unit for determinism). An ID accepted again after its done
// record appears twice in j.order; it is returned once, at its first place.
func (j *Journal) liveInOrder() []Accept {
	var out []Accept
	seen := make(map[string]bool, len(j.live))
	for _, id := range j.order {
		rec, ok := j.live[id]
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		rec.Leases = j.jobLeases(id)
		out = append(out, rec)
	}
	return out
}

// jobLeases returns one job's latest leases sorted by unit.
func (j *Journal) jobLeases(id string) []Lease {
	m := j.leases[id]
	if len(m) == 0 {
		return nil
	}
	units := make([]string, 0, len(m))
	for unit := range m {
		units = append(units, unit)
	}
	sort.Strings(units)
	out := make([]Lease, 0, len(units))
	for _, unit := range units {
		out = append(out, m[unit])
	}
	return out
}

// appendLocked writes one record line, syncing it when the journal was opened
// with fsync. Callers hold j.mu.
func (j *Journal) appendLocked(rec record) error {
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		j.f = f
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	return nil
}

// compactLocked rewrites the log with only the live accept records and their
// latest leases (temp file + rename, so a crash mid-compaction loses
// nothing). With fsync, the temp file is synced before the rename and the
// directory after it, so the compacted log is power-loss durable too.
// Failures carry ErrCompaction. Callers hold j.mu.
func (j *Journal) compactLocked() error {
	if err := j.doCompactLocked(); err != nil {
		return fmt.Errorf("%w: %v", ErrCompaction, err)
	}
	return nil
}

func (j *Journal) doCompactLocked() error {
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, "journal-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	keep := j.liveInOrder()
	ok := true
	for _, rec := range keep {
		leases := rec.Leases
		rec.Leases = nil
		recs := []record{{Op: "accept", Accept: rec}}
		for _, l := range leases {
			recs = append(recs, record{Op: "lease", Accept: Accept{ID: rec.ID}, Lease: &l})
		}
		for _, r := range recs {
			line, err := json.Marshal(r)
			if err == nil {
				_, err = w.Write(append(line, '\n'))
			}
			if err != nil {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
	}
	if ok {
		ok = w.Flush() == nil
		if ok && j.fsync {
			ok = tmp.Sync() == nil
		}
		ok = tmp.Close() == nil && ok
	} else {
		tmp.Close()
	}
	if !ok {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: compacting %s failed", j.path)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if j.fsync {
		// Sync the directory so the rename itself survives power loss.
		if d, err := os.Open(dir); err == nil {
			_ = d.Sync()
			d.Close()
		}
	}
	// The append handle points at the unlinked pre-compaction file; reopen
	// lazily on the next append.
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	j.order = make([]string, 0, len(keep))
	for _, rec := range keep {
		j.order = append(j.order, rec.ID)
	}
	j.dones = 0
	return nil
}
