package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"battsched/internal/experiments"
	"battsched/internal/service"
)

// TestWireFormPinned pins the POST /v1/jobs wire form byte for byte. A body
// that sets every spec field decodes into exactly that experiments.Spec and
// re-encodes to the same bytes, which are the bytes a SpecRequest that
// copied the Spec field by field wrote. The execution-only knobs and the Go
// names of the embedded RunOptions stay unknown fields inside spec.
func TestWireFormPinned(t *testing.T) {
	const body = `{"experiment":"table2","spec":{"quick":true,"seed":3,"sets":2,"utilization":0.6,"battery":"kibam","oracle":true,"ccedf":true,"maxstep":2,"target_ci":0.5,"max_sets":8},"shards":2,"shard":"1/2"}`
	var req service.JobRequest
	if err := service.DecodeJSON(strings.NewReader(body), &req); err != nil {
		t.Fatal(err)
	}
	want := experiments.Spec{Quick: true, Seed: 3, Sets: 2, Utilization: 0.6, Battery: "kibam", Oracle: true, CCEDF: true, MaxStep: 2,
		RunOptions: experiments.RunOptions{TargetCI: 0.5, MaxSets: 8}}
	if got := req.Spec.Spec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded spec %+v, want %+v", got, want)
	}
	out, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != body {
		t.Fatalf("re-encoded request\n%s\nwant\n%s", out, body)
	}
	for field, value := range map[string]string{"parallel": "2", "progress": "null", "shard": `{"Index":0,"Count":2}`, "RunOptions": "{}", "TargetCI": "0.5"} {
		err := service.DecodeJSON(strings.NewReader(`{"experiment":"table2","spec":{"`+field+`":`+value+`}}`), new(service.JobRequest))
		if want := fmt.Sprintf("json: unknown field %q", field); err == nil || err.Error() != want {
			t.Errorf("spec field %q: err = %v, want %s", field, err, want)
		}
	}
}

// TestSubmitClearsExecutionKnobs pins that an in-process Submit runs what
// the same request over HTTP runs: the spec's worker count, progress callback
// and shard, which have no wire name, are cleared at admission. The job has
// the plain spec's address and the unsharded run's artifact.
func TestSubmitClearsExecutionKnobs(t *testing.T) {
	srv, c := startDaemon(t, service.Config{Workers: 1})
	plain := experiments.Spec{Quick: true, Battery: "kibam", Sets: 1}
	spec := plain
	spec.Parallel, spec.Progress, spec.Shard = 3, func(int, int) { t.Error("progress callback of the request called") }, experiments.Shard{Index: 5, Count: 2}
	st, err := srv.Submit(service.JobRequest{Experiment: "table2", Spec: service.SpecRequest(spec)})
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.SpecHash("table2", plain); st.Hash != want {
		t.Fatalf("job address %s, want the plain spec's %s", st.Hash, want)
	}
	if st, err = c.Wait(context.Background(), st.ID, 10*time.Millisecond, nil); err != nil || st.State != service.StateDone {
		t.Fatalf("job %+v, err %v; want done", st, err)
	}
	got, err := c.ReportArtifact(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := localArtifact(t, "table2", plain); !bytes.Equal(got, want) {
		t.Fatalf("artifact differs from the unsharded local run:\n%s\nwant:\n%s", got, want)
	}
}
