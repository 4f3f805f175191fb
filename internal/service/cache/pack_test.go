package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// frame returns the pack record of one artifact, as Put writes it.
func frame(key string, data []byte) []byte {
	rec := appendHeader(nil, key, int64(len(data)), checksum(key, data))
	return append(append(rec, data...), '\n')
}

func mustNew(t testing.TB, dir string, maxEntries int) *Cache {
	t.Helper()
	c, err := New(dir, maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wantServed fails unless c serves want under key, byte for byte.
func wantServed(t *testing.T, c *Cache, key string, want []byte) {
	t.Helper()
	if got, ok := c.Get(key); !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get(%s) = %d bytes, %v; want the %d-byte artifact", key, len(got), ok, len(want))
	}
}

// testArtifacts returns three artifacts under their keys, in Put order.
func testArtifacts() ([]string, [][]byte) {
	return []string{"a1", "b2", "c3"}, [][]byte{
		[]byte(`{"version":1,"shard":"0/2"}`),
		[]byte("second artifact\nspanning two lines"),
		[]byte(strings.Repeat(`{"cell":[0.25,1e-9]}`, 16)),
	}
}

// writePack stores the artifacts in a fresh cache directory and returns the
// pack's bytes.
func writePack(t *testing.T, keys []string, arts [][]byte) []byte {
	t.Helper()
	dir := t.TempDir()
	c := mustNew(t, dir, 4)
	for i, k := range keys {
		if err := c.Put(k, arts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	pack, err := os.ReadFile(filepath.Join(dir, packName))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, k := range keys {
		want = append(want, frame(k, arts[i])...)
	}
	if !bytes.Equal(pack, want) {
		t.Fatalf("pack is not the records in Put order:\n%q\nwant\n%q", pack, want)
	}
	return pack
}

// TestPackTornTail cuts the pack at every byte inside its last record, as a
// crash mid-append leaves it: the complete records are served byte for byte,
// the torn one is not, and the cut is truncated away so that the next Put's
// record survives another reopen.
func TestPackTornTail(t *testing.T) {
	keys, arts := testArtifacts()
	pack := writePack(t, keys, arts)
	start := len(frame(keys[0], arts[0])) + len(frame(keys[1], arts[1]))
	dir := t.TempDir()
	path := filepath.Join(dir, packName)
	for cut := start; cut < len(pack); cut++ {
		if err := os.WriteFile(path, pack[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c := mustNew(t, dir, 4)
		wantServed(t, c, keys[0], arts[0])
		wantServed(t, c, keys[1], arts[1])
		if _, ok := c.Get(keys[2]); ok {
			t.Fatalf("cut at %d: torn record served", cut)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(start) {
			t.Fatalf("cut at %d: pack not truncated to its %d complete bytes (%v, %v)", cut, start, fi.Size(), err)
		}
		if err := c.Put(keys[2], arts[2]); err != nil {
			t.Fatal(err)
		}
		c.Close()
		c = mustNew(t, dir, 4)
		for i, k := range keys {
			wantServed(t, c, k, arts[i])
		}
		c.Close()
	}
}

// TestPackFlippedByte flips each byte of the middle record in turn, header
// and newline included: every key served still returns its own artifact, a
// flipped body is never served, and a later Put of each key is served after
// a reopen.
func TestPackFlippedByte(t *testing.T) {
	keys, arts := testArtifacts()
	pack := writePack(t, keys, arts)
	first := len(frame(keys[0], arts[0]))
	end := first + len(frame(keys[1], arts[1]))
	body := end - 1 - len(arts[1])
	want := make(map[string][]byte)
	for i, k := range keys {
		want[k] = arts[i]
	}
	dir := t.TempDir()
	for i := first; i < end; i++ {
		bad := bytes.Clone(pack)
		bad[i] ^= 0x01
		if err := os.WriteFile(filepath.Join(dir, packName), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		c := mustNew(t, dir, 4)
		for key := range c.index {
			if got, ok := c.Get(key); ok && !bytes.Equal(got, want[key]) {
				t.Fatalf("flip at %d: Get(%s) = %q", i, key, got)
			}
		}
		if got, ok := c.Get(keys[1]); ok && i >= body && i < end-1 {
			t.Fatalf("flip at %d: corrupt body served: %q", i, got)
		}
		wantServed(t, c, keys[0], arts[0])
		for j, k := range keys {
			if err := c.Put(k, arts[j]); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		c = mustNew(t, dir, 4)
		for j, k := range keys {
			wantServed(t, c, k, arts[j])
		}
		c.Close()
	}
}

// TestPackChecksumAtGet corrupts an indexed record under an open cache: the
// disk read fails its checksum, the key leaves the index, and the next Put
// of it appends a record that a reopen serves.
func TestPackChecksumAtGet(t *testing.T) {
	keys, arts := testArtifacts()
	pack := writePack(t, keys, arts)
	dir := t.TempDir()
	path := filepath.Join(dir, packName)
	if err := os.WriteFile(path, pack, 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, dir, 1)
	defer c.Close()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := int64(len(frame(keys[0], arts[0])) - 2) // last byte of the first body
	if _, err := f.WriteAt([]byte{arts[0][len(arts[0])-1] ^ 0x01}, at); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("corrupt record served")
	}
	if _, ok := c.index[keys[0]]; ok {
		t.Fatal("corrupt record kept in the index")
	}
	wantServed(t, c, keys[1], arts[1])
	if err := c.Put(keys[0], arts[0]); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() != int64(len(pack)+len(frame(keys[0], arts[0]))) {
		t.Fatalf("Put after a failed checksum did not append its record (size %d, %v)", fi.Size(), err)
	}
	c2 := mustNew(t, dir, 1)
	defer c2.Close()
	for i, k := range keys {
		wantServed(t, c2, k, arts[i])
	}
}

// TestPackHugeLength opens a pack whose last header claims 1 TiB: the length
// is checked against the file size before anything is read or allocated for
// it, and the record is cut away.
func TestPackHugeLength(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, packName)
	good := frame("aa", []byte("ok"))
	pack := append(bytes.Clone(good), "bb 1099511627776 00000000\nnot a terabyte\n"...)
	if err := os.WriteFile(path, pack, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := mustNew(t, dir, 4)
	runtime.ReadMemStats(&after)
	defer c.Close()
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("opening a %d-byte pack allocated %d bytes", len(pack), n)
	}
	wantServed(t, c, "aa", []byte("ok"))
	if _, ok := c.Get("bb"); ok {
		t.Fatal("record longer than the pack served")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("pack not truncated after its complete record (%v, %v)", fi.Size(), err)
	}
}

// TestPackAppendOnly pins the write path: New creates no file, a repeated Put
// writes nothing, and a second cache over the same directory appends after
// the first one's records instead of overwriting them.
func TestPackAppendOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, packName)
	c := mustNew(t, dir, 4)
	defer c.Close()
	if _, ok := c.Get("aa"); ok {
		t.Fatal("hit on an empty cache")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("New created the pack (%v)", err)
	}
	for range 2 {
		if err := c.Put("aa", []byte("one")); err != nil {
			t.Fatal(err)
		}
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, frame("aa", []byte("one"))) {
		t.Fatalf("pack after a repeated Put = %q", data)
	}
	c2 := mustNew(t, dir, 4)
	defer c2.Close()
	if err := c.Put("bb", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Put("cc", []byte("three")); err != nil {
		t.Fatal(err)
	}
	c3 := mustNew(t, dir, 4)
	defer c3.Close()
	for _, kv := range [][2]string{{"aa", "one"}, {"bb", "two"}, {"cc", "three"}} {
		wantServed(t, c3, kv[0], []byte(kv[1]))
	}
}

// shardArtifact reads the recorded 12.5 KB table2 and grid shard partial.
func shardArtifact(tb testing.TB) []byte {
	tb.Helper()
	art, err := os.ReadFile(filepath.Join("..", "..", "experiments", "testdata", "table2_grid_shard0of2.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return art
}

// FuzzOpenPack writes arbitrary bytes as an existing pack. New either fails
// or opens; every key it serves returns bytes whose record, checksum
// included, is in the pack; and a Put of a new key survives a reopen along
// with every key served before it.
func FuzzOpenPack(f *testing.F) {
	one := frame("cafe", shardArtifact(f))
	f.Add(append(frame("aa", []byte(`{"version":1}`)), frame("bb", []byte("second"))...))
	f.Add(one)
	f.Add(one[:len(one)/2])
	f.Fuzz(func(t *testing.T, pack []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, packName), pack, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(dir, 4)
		if err != nil {
			return
		}
		served := make(map[string][]byte)
		for key := range c.index {
			data, ok := c.Get(key)
			if !ok {
				t.Fatalf("indexed key %s not served", key)
			}
			if !bytes.Contains(pack, frame(key, data)) {
				t.Fatalf("Get(%s) = %q, which no record of the pack holds", key, data)
			}
			served[key] = data
		}
		fresh := "f"
		for _, taken := c.index[fresh]; taken; _, taken = c.index[fresh] {
			fresh += "f"
		}
		if err := c.Put(fresh, []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		c.Close()
		c = mustNew(t, dir, 4)
		defer c.Close()
		wantServed(t, c, fresh, []byte("fresh"))
		for key, data := range served {
			wantServed(t, c, key, data)
		}
	})
}

// BenchmarkCachePut stores the recorded 12.5 KB shard partial under a fresh
// key per operation. Every 1024 Puts the pack is deleted (off the clock), so
// a long run does not fill the disk.
func BenchmarkCachePut(b *testing.B) {
	art := shardArtifact(b)
	dir := b.TempDir()
	c := mustNew(b, dir, 64)
	b.SetBytes(int64(len(art)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if i%1024 == 1023 {
			b.StopTimer()
			c.Close()
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
			c = mustNew(b, dir, 64)
			b.StartTimer()
		}
		if err := c.Put(strconv.FormatUint(uint64(i), 16), art); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Close()
}

// BenchmarkCacheGetMiss looks up a key that neither tier holds, on a
// disk-backed cache: the lookup of every cold submission.
func BenchmarkCacheGetMiss(b *testing.B) {
	c := mustNew(b, b.TempDir(), 64)
	defer c.Close()
	if err := c.Put("aa", shardArtifact(b)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, ok := c.Get("bb"); ok {
			b.Fatal("hit")
		}
	}
}

// BenchmarkCacheGetDisk alternates between two 12.5 KB artifacts on a memory
// tier of 1, so every Get misses memory and reads the artifact from disk.
func BenchmarkCacheGetDisk(b *testing.B) {
	art := shardArtifact(b)
	c := mustNew(b, b.TempDir(), 1)
	defer c.Close()
	keys := []string{"aa", "bb"}
	for _, k := range keys {
		if err := c.Put(k, art); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(art)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, ok := c.Get(keys[i%2]); !ok {
			b.Fatal("miss")
		}
	}
}
