package service_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"battsched/internal/experiments"
	"battsched/internal/service"
)

// localShardArtifact renders one shard slice's partial artifact locally: the
// bytes `cmd/experiments run -shard i/n -o` writes.
func localShardArtifact(t *testing.T, name string, spec experiments.Spec, shard experiments.Shard) []byte {
	t.Helper()
	spec.Shard = shard
	return localArtifact(t, name, spec)
}

// TestShardUnitJob pins the unit-of-federation contract: a JobRequest with
// Shard "i/n" runs exactly that slice as a single-unit job whose artifact is
// byte-identical to the local partial run, content-addressed by the partial's
// hash — so a duplicate dispatch of the same unit is a cache hit, which is
// what makes the coordinator's re-dispatch and restart replay idempotent on
// workers.
func TestShardUnitJob(t *testing.T) {
	spec := experiments.Spec{Quick: true, Battery: "kibam"}
	shard := experiments.Shard{Index: 1, Count: 3}
	want := localShardArtifact(t, "table2", spec, shard)

	_, c := startDaemon(t, service.Config{Workers: 2})
	req := service.JobRequest{
		Experiment: "table2",
		Spec:       service.SpecRequest(spec),
		Shard:      "1/3",
	}
	st := submitAndWait(t, c, req)
	if st.Cached {
		t.Fatal("first shard-unit submission reported cached")
	}
	if wantHash := experiments.ShardSpecHash("table2", spec, shard); st.Hash != wantHash {
		t.Fatalf("shard-unit job hash = %s, want ShardSpecHash %s", st.Hash, wantHash)
	}
	if len(st.Shards) != 1 || st.Shards[0].Shard != "1/3" {
		t.Fatalf("shard-unit status = %+v, want one 1/3 unit", st.Shards)
	}
	got, err := c.ReportArtifact(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("shard-unit artifact differs from local -shard 1/3 run:\n--- served ---\n%s\n--- local ---\n%s", got, want)
	}

	// A duplicate dispatch of the same unit is served from the cache.
	st2 := submitAndWait(t, c, req)
	if !st2.Cached {
		t.Fatal("duplicate shard-unit submission not served from cache")
	}
	got2, err := c.ReportArtifact(context.Background(), st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("cached shard-unit artifact differs")
	}

	// A different slice of the same spec is a distinct address, not a hit.
	req03 := req
	req03.Shard = "0/3"
	st3 := submitAndWait(t, c, req03)
	if st3.Cached {
		t.Fatal("different shard slice hit the cache")
	}
	if st3.Hash == st.Hash {
		t.Fatal("shards 0/3 and 1/3 share a content address")
	}
}

// TestShardUnitValidation pins shard-unit admission errors: malformed shard
// strings, mixing Shard with Shards, non-shardable experiments and adaptive
// set counts all fail with ErrBadConfig at submission.
func TestShardUnitValidation(t *testing.T) {
	srv, _ := startDaemon(t, service.Config{Workers: 1})
	cases := []struct {
		name string
		req  service.JobRequest
		want string
	}{
		{"malformed", service.JobRequest{Experiment: "table2", Shard: "nope"}, "shard"},
		{"out-of-range", service.JobRequest{Experiment: "table2", Shard: "3/3"}, "shard"},
		{"mixed", service.JobRequest{Experiment: "table2", Shard: "0/2", Shards: 2}, "mutually exclusive"},
		{"deterministic", service.JobRequest{Experiment: "curve", Shard: "0/2"}, "does not shard"},
		{"adaptive", service.JobRequest{Experiment: "table2", Spec: service.SpecRequest{RunOptions: experiments.RunOptions{TargetCI: 0.2}}, Shard: "0/2"}, "does not shard"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := srv.Submit(tc.req)
			if err == nil {
				t.Fatalf("%s: admitted, want ErrBadConfig", tc.name)
			}
			if !errors.Is(err, experiments.ErrBadConfig) {
				t.Fatalf("%s: err = %v, want ErrBadConfig", tc.name, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: err %q does not mention %q", tc.name, err, tc.want)
			}
		})
	}
}
