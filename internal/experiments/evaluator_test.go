package experiments

import (
	"bytes"
	"context"
	"slices"
	"testing"
)

// TestPooledEvaluatorsMatchFresh runs the four per-set drivers, Table 2 on
// two batteries, one after another in one process and in two orders, so
// each driver's jobs take evaluators that other drivers' jobs (other
// hyperperiods, schemes, battery models or none) released to the pool. Every
// artifact must equal the run on fresh evaluators, one per job, byte for
// byte.
func TestPooledEvaluatorsMatchFresh(t *testing.T) {
	type run struct {
		name string
		spec Spec
	}
	runs := []run{
		{"table2", Spec{Quick: true, Battery: "kibam"}},
		{"grid", Spec{Quick: true}},
		{"figure6", Spec{Quick: true}},
		{"ablation", Spec{Quick: true}},
		{"table2", Spec{Quick: true, Battery: "stochastic"}},
	}
	artifact := func(r run) []byte {
		t.Helper()
		rep, err := Run(context.Background(), r.name, r.spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteArtifact(&buf, []*Report{rep}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	fresh := make([][]byte, len(runs))
	func() {
		defer func(take func() *evaluator) { takeEvaluator = take }(takeEvaluator)
		takeEvaluator = newEvaluator
		for i, r := range runs {
			fresh[i] = artifact(r)
		}
	}()

	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	for pass := range 2 {
		for _, i := range order {
			if got := artifact(runs[i]); !bytes.Equal(got, fresh[i]) {
				t.Errorf("pass %d: %s %+v on pooled evaluators differs from fresh ones", pass, runs[i].name, runs[i].spec)
			}
		}
		slices.Reverse(order)
	}
}
