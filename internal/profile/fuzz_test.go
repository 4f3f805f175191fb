package profile

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadCSV checks that every input either fails to parse or yields a
// profile that passes Validate, has a finite positive duration and a finite
// charge, and whose WriteCSV output reads back to a profile of the same
// duration (the CSV keeps 9 significant digits). Seeds: the recorded load of
// quick Table 2 set 0 under BAS-2 (two hyperperiods, 78 segments) and the
// non-finite rows %g parses.
func FuzzReadCSV(f *testing.F) {
	recorded, err := os.ReadFile(filepath.Join("testdata", "table2_quick_set0_bas2.csv"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)
	for _, row := range []string{"0,NaN,0.5\n", "0,1,NaN\n", "0,Inf,0.5\n", "0,1,+Inf\n", "0,-Inf,0.5\n", "0,1,-Inf\n", "0,1e308,0\n0,1e308,1\n"} {
		f.Add([]byte(row))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ReadCSV returned an invalid profile: %v", err)
		}
		d, q := p.Duration(), p.Charge()
		if !(d > 0) || math.IsInf(d, 0) || math.IsNaN(q) || math.IsInf(q, 0) {
			t.Fatalf("ReadCSV returned duration %v s, charge %v C", d, q)
		}
		var buf bytes.Buffer
		if err := p.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("WriteCSV output does not read back: %v\n%s", err, buf.Bytes())
		}
		if db := back.Duration(); math.Abs(db-d) > 1e-8*d {
			t.Fatalf("read-back duration %v s, want %v s", db, d)
		}
	})
}
