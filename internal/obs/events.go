package obs

import (
	"encoding/json"
	"log"
	"os"
	"sync"
	"time"
)

// Event names emitted by the daemon and coordinator. One grep on a trace id
// over the JSONL event logs reconstructs a job's full fleet-wide lifecycle.
const (
	EventJobAccepted      = "job_accepted"      // submission admitted (detail: computed|coalesced|cached)
	EventJobDone          = "job_done"          // job reached StateDone
	EventJobFailed        = "job_failed"        // job reached StateFailed (detail: error)
	EventCacheHit         = "cache_hit"         // content-addressed report cache hit
	EventCacheMiss        = "cache_miss"        // cache lookup missed; the job computes
	EventUnitQueued       = "unit_queued"       // shard unit entered the FIFO queue
	EventUnitStarted      = "unit_started"      // worker-pool slot began executing the unit
	EventUnitFinished     = "unit_finished"     // unit completed (detail: duration)
	EventUnitFailed       = "unit_failed"       // unit failed (detail: error)
	EventUnitLeased       = "unit_leased"       // coordinator dispatched the unit under a lease
	EventUnitRedispatched = "unit_redispatched" // lease failed or expired; unit re-queued (detail: cause)
	EventMerge            = "merge"             // shard partials merged into the job artifact
	EventWorkerDown       = "worker_down"       // worker taken out of rotation (reason: verdict, detail: cause)
	EventWorkerUp         = "worker_up"         // heartbeat made a worker live (registration or recovery)
)

// Worker-down reasons (Event.Reason of EventWorkerDown).
const (
	ReasonHeartbeatMiss  = "heartbeat-miss"  // consecutive /healthz probes failed
	ReasonTransportError = "transport-error" // a lease RPC failed with a connection-level error
)

// Event is one structured span record in the JSONL event log. Every field
// except Time and Event is optional; Trace threads the record into a
// submission's fleet-wide lifecycle.
type Event struct {
	Time       time.Time `json:"ts"`
	Event      string    `json:"event"`
	Trace      string    `json:"trace,omitempty"`
	Job        string    `json:"job,omitempty"`
	Experiment string    `json:"experiment,omitempty"`
	Unit       string    `json:"unit,omitempty"` // shard label ("2/4"; "" for unsharded)
	Worker     string    `json:"worker,omitempty"`
	// Reason is the structured verdict of EventWorkerDown
	// (ReasonHeartbeatMiss or ReasonTransportError); Detail carries the
	// free-form cause.
	Reason string `json:"reason,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// EventLog is an append-only JSONL event sink. A nil *EventLog is valid and
// discards everything, so callers emit unconditionally and only -cache-dir
// deployments pay the I/O.
type EventLog struct {
	mu      sync.Mutex
	f       *os.File
	errOnce sync.Once
}

// OpenEventLog opens (creating or appending) the JSONL event log at path.
func OpenEventLog(path string) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &EventLog{f: f}, nil
}

// Emit appends one event. Nil-safe; a zero Time is stamped with now. Write
// failures are logged once and otherwise dropped — telemetry never fails a
// job.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, werr := l.f.Write(line)
	l.mu.Unlock()
	if werr != nil {
		l.errOnce.Do(func() {
			log.Printf("obs: event log write failed (suppressing further reports): %v", werr)
		})
	}
}

// Close closes the underlying file. Nil-safe.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// ReadEvents decodes a JSONL event log, optionally filtering to one trace id
// ("" keeps everything). Unparseable lines are skipped — the log is
// append-only and a crash can truncate the final line.
func ReadEvents(path, trace string) ([]Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Event
	for len(data) > 0 {
		nl := -1
		for i, c := range data {
			if c == '\n' {
				nl = i
				break
			}
		}
		var line []byte
		if nl < 0 {
			line, data = data, nil
		} else {
			line, data = data[:nl], data[nl+1:]
		}
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			continue
		}
		if trace == "" || e.Trace == trace {
			out = append(out, e)
		}
	}
	return out, nil
}
