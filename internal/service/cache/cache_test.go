package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestMemoryOnlyRoundTrip(t *testing.T) {
	c, err := New("", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("ab12"); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put("ab12", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get("ab12"); !ok || string(got) != "one" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

// TestLRUEviction checks the recency bound: with capacity 2, touching "a"
// keeps it resident while the untouched "b" is evicted by a third insert. A
// memory-only cache loses the evicted entry; a disk-backed cache re-admits it
// from the store.
func TestLRUEviction(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		c, err := New(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"aa", "bb"} {
			if err := c.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		c.Get("aa") // refresh
		if err := c.Put("cc", []byte("cc")); err != nil {
			t.Fatal(err)
		}
		if c.Len() != 2 {
			t.Fatalf("dir=%q: len = %d, want 2", dir, c.Len())
		}
		if _, ok := c.Get("aa"); !ok {
			t.Fatalf("dir=%q: recently used entry evicted", dir)
		}
		_, ok := c.Get("bb")
		if disk := dir != ""; ok != disk {
			t.Fatalf("dir=%q: evicted entry present=%v, want %v", dir, ok, disk)
		}
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"version":1}`)
	if err := c.Put("deadbeef", data); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, packName)); err != nil {
		t.Fatalf("pack missing: %v", err)
	}
	// A fresh cache over the same directory serves the artifact from disk.
	c2, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("deadbeef")
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if c2.Len() != 1 {
		t.Fatalf("disk hit not admitted to memory (len %d)", c2.Len())
	}
}

// TestInvalidKeys pins the path-safety rule: anything but bounded lowercase
// hex is rejected by both Get and Put.
func TestInvalidKeys(t *testing.T) {
	c, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	long := fmt.Sprintf("%0200d", 0)
	for _, bad := range []string{"", "../etc/passwd", "ABCD", "xyz!", "a/b", long} {
		if err := c.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", bad)
		}
		if _, ok := c.Get(bad); ok {
			t.Fatalf("Get(%q) hit", bad)
		}
	}
}
