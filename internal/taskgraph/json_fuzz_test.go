package taskgraph

import (
	"bytes"
	"os"
	"testing"
)

// fuzzFMax is the default processor's f_max, the bound basched -workload
// reads files at.
const fuzzFMax = 1e9

// FuzzReadJSON checks the system decoder basched -workload reads files with,
// at the default processor's f_max: every input either fails, or yields a
// system that Validate(fuzzFMax) accepts and whose WriteJSON output reads
// back and re-writes to the same bytes. The seeds are a 3-graph system
// written by cmd/tgffgen, two small systems and one followed by a trailing
// word.
func FuzzReadJSON(f *testing.F) {
	seed, err := os.ReadFile("testdata/tgffgen_system.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"graphs":[{"name":"A","period":0.1,"nodes":[{"wcet":1},{"wcet":2}],"edges":[{"from":0,"to":1}]}]}`))
	f.Add([]byte(`{"graphs":[{"period":1,"nodes":[{"wcet":1}]},{"period":1,"nodes":[{"wcet":1}]}]}`))
	f.Add([]byte(`{"graphs":[{"period":1,"nodes":[{"wcet":1}]}]} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := ReadJSON(bytes.NewReader(data), fuzzFMax)
		if err != nil {
			return
		}
		if err := sys.Validate(fuzzFMax); err != nil {
			t.Fatalf("ReadJSON returned a system Validate rejects: %v", err)
		}
		var first bytes.Buffer
		if err := sys.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()), fuzzFMax)
		if err != nil {
			t.Fatalf("reading back WriteJSON's output: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatalf("WriteJSON of the read-back system: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-written system differs:\n%s\nfirst written as\n%s", second.Bytes(), first.Bytes())
		}
	})
}
