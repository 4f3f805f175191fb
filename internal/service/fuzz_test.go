package service

import (
	"bytes"
	"testing"
	"time"
)

// FuzzJobRequest feeds arbitrary bytes to the POST /v1/jobs decoder. Either
// decoding fails, or check rejects the request, or check accepts it; an
// accepted request, journaled as an admitted job is and rebuilt as replay
// rebuilds it, must check to the same content address and unit shard. The
// journaled wire spec is also what a unit forwards to a worker.
func FuzzJobRequest(f *testing.F) {
	// The bodies CI's service job submits, and a shard unit as the
	// coordinator dispatches it.
	f.Add([]byte(`{"experiment":"table2","spec":{"quick":true,"battery":"kibam"},"shards":2}`))
	f.Add([]byte(`{"experiment":"grid","spec":{"quick":true,"battery":"kibam"},"shards":3}`))
	f.Add([]byte(`{"experiment":"table2","spec":{"quick":true,"seed":7,"sets":800,"utilization":0.9,"oracle":true,"target_ci":0.05,"max_sets":16},"shard":"1/2"}`))
	// The wire spec omits zeros, so a journaled -0 replays as 0: the two
	// once had different addresses.
	f.Add([]byte(`{"experiment":"table2","spec":{"utilization":-0,"maxstep":-0,"target_ci":-0}}`))
	// A negative target CI, which check refuses: it once ran as a fixed run
	// under an address of its own.
	f.Add([]byte(`{"experiment":"table2","spec":{"quick":true,"target_ci":-1}}`))
	// A negative set-count cap, which check refuses: with a target CI it once
	// ran as the default cap under an address of its own.
	f.Add([]byte(`{"experiment":"table2","spec":{"quick":true,"target_ci":0.2,"max_sets":-1}}`))
	// A negative battery substep, which check refuses: it once ran the
	// analytic path, as 0 does, under an address of its own.
	f.Add([]byte(`{"experiment":"curve","spec":{"quick":true,"maxstep":-1}}`))
	// A second value and garbage after the first: the decoder once ran the
	// first value alone.
	f.Add([]byte(`{"experiment":"table2","spec":{"quick":true}} {"experiment":"grid","shards":99999} trailing garbage`))
	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if err := DecodeJSON(bytes.NewReader(body), &req); err != nil {
			return
		}
		spec, shard, hash, err := s.check(req)
		if err != nil {
			return
		}
		rec, err := acceptRecord(newJob("job-000001", req, spec, hash, time.Time{}), req.Shards, req.Shard)
		if err != nil {
			t.Fatalf("journaling accepted request %+v: %v", req, err)
		}
		back, err := replayRequest(rec)
		if err != nil {
			t.Fatalf("replaying journaled spec %s: %v", rec.Spec, err)
		}
		_, backShard, backHash, err := s.check(back)
		if err != nil {
			t.Fatalf("replayed request %+v (journaled spec %s) fails check: %v", back, rec.Spec, err)
		}
		if backShard != shard || backHash != hash {
			t.Fatalf("request %+v checks to shard %v, address %s; replayed as %+v from %s: shard %v, address %s",
				req, shard, hash, back, rec.Spec, backShard, backHash)
		}
	})
}
