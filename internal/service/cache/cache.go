// Package cache implements the content-addressed report cache of the
// experiment service: finished report artifacts keyed by the canonical spec
// hash (experiments.SpecHash), held in a bounded in-memory LRU in front of an
// optional on-disk pack.
//
// Keys are content addresses, so entries are immutable: a key is only ever
// associated with one artifact. That makes the two tiers trivially coherent —
// the LRU is purely a recency window over the pack, and eviction never loses
// data when a directory is configured.
//
// The pack is one append-only file per cache directory, reports.pack, with
// one record per artifact:
//
//	<key> <length> <crc32c>\n<artifact>\n
//
// where length is the artifact's size in decimal and crc32c is the CRC-32C
// (Castagnoli) of the key followed by the artifact, in 8 lowercase hex
// digits. A Put builds its record in a buffer the cache keeps and appends it
// in one write to the file opened with O_APPEND, and writes nothing for a key
// the pack already holds. New rebuilds an in-memory index from key to record
// by one scan, so a miss is a map lookup and a disk hit one positioned read.
// The pack is created by the first Put: a daemon that never stores an
// artifact writes no file.
//
// A crash never serves a partial artifact under a valid key. New indexes
// complete records only, checks each header's length against the file size
// before reading its body, and truncates the pack at the first torn or
// unparseable record. A record whose checksum fails, at New or at Get, is not
// served and its key leaves the index, so a later Put writes it again. Like
// the job journal without fsync, the pack rides the OS page cache: it
// survives a killed process, not power loss. One daemon owns a cache
// directory at a time.
//
// Records are never removed. To collect garbage, stop the daemon and delete
// reports.pack; the specs it held recompute on resubmission. Files of the
// earlier one-file-per-artifact store (<key>.json) are not read either: their
// specs recompute too, with byte-identical results.
package cache

import (
	"bufio"
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// packName is the pack's file name inside the cache directory.
const packName = "reports.pack"

// maxHeader bounds a record header line: a 128-byte key, a 19-digit length,
// 8 hex digits, two spaces and the newline.
const maxHeader = 128 + 1 + 19 + 1 + 8 + 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Cache is a two-tier content-addressed artifact store. The zero value is
// not usable; construct with New.
type Cache struct {
	max int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
	path  string            // the pack; "" keeps the cache memory-only
	pack  *os.File          // opened by New if the pack exists, else by the first Put
	index map[string]record // the pack's servable records
	buf   []byte            // Put's record, reused across Puts
}

// entry is one resident artifact.
type entry struct {
	key  string
	data []byte
}

// record locates one artifact in the pack.
type record struct {
	off int64  // offset of the artifact bytes
	n   int64  // artifact length
	sum uint32 // checksum(key, artifact)
}

// New returns a cache holding at most maxEntries artifacts in memory
// (<= 0 selects 64). dir selects the on-disk pack; "" keeps the cache
// memory-only (evicted entries are then gone for good). The directory is
// created if missing, and an existing pack is indexed and cut at its first
// torn or unparseable record.
func New(dir string, maxEntries int) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	c := &Cache{
		max:   maxEntries,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
		index: make(map[string]record),
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating %s: %w", dir, err)
	}
	c.path = filepath.Join(dir, packName)
	if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// load indexes the records of an existing pack and truncates it after the
// last complete one.
func (c *Cache) load() error {
	f, err := os.OpenFile(c.path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("cache: %w", err)
	}
	size := fi.Size()
	r := bufio.NewReader(io.NewSectionReader(f, 0, size))
	h, buf := crc32.New(castagnoli), make([]byte, 32<<10)
	var off int64
	for off < size {
		line, err := r.ReadSlice('\n')
		if err != nil || len(line) > maxHeader {
			break
		}
		key, n, sum, ok := parseHeader(line)
		body := off + int64(len(line))
		if !ok || n > size-body-1 {
			break
		}
		h.Reset()
		io.WriteString(h, key)
		if k, _ := io.CopyBuffer(h, io.LimitReader(r, n), buf); k != n {
			break
		}
		if b, err := r.ReadByte(); err != nil || b != '\n' {
			break
		}
		if _, dup := c.index[key]; !dup && h.Sum32() == sum {
			c.index[key] = record{off: body, n: n, sum: sum}
		}
		off = body + n + 1
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return fmt.Errorf("cache: %w", err)
		}
	}
	c.pack = f
	return nil
}

// appendHeader appends the header line of the record of an n-byte artifact.
func appendHeader(b []byte, key string, n int64, sum uint32) []byte {
	return fmt.Appendf(b, "%s %d %08x\n", key, n, sum)
}

// parseHeader decodes a header line as appendHeader writes it, and nothing
// else.
func parseHeader(line []byte) (key string, n int64, sum uint32, ok bool) {
	_, err := fmt.Sscanf(string(line), "%s %d %x\n", &key, &n, &sum)
	ok = err == nil && n >= 0 && validKey(key) && bytes.Equal(line, appendHeader(nil, key, n, sum))
	return key, n, sum, ok
}

// checksum is a record's CRC-32C: of the key, then of the artifact.
func checksum(key string, data []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, []byte(key)), castagnoli, data)
}

// validKey reports whether key is a plausible content address: non-empty
// lowercase hex of bounded length. Rejecting anything else keeps a header
// line parseable by construction (a key never holds a space or a newline).
func validKey(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the artifact stored under key. A memory miss that the pack
// holds is one positioned read, checked against the record's checksum, and
// re-admits the artifact to the LRU; a key in neither tier costs no system
// call. The returned bytes are shared and must not be modified.
func (c *Cache) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry).data, true
	}
	rec, ok := c.index[key]
	if !ok || c.pack == nil {
		return nil, false
	}
	data := make([]byte, rec.n)
	if _, err := c.pack.ReadAt(data, rec.off); err != nil || checksum(key, data) != rec.sum {
		delete(c.index, key)
		return nil, false
	}
	c.admit(key, data)
	return data, true
}

// Put stores the artifact under key in the LRU and, when a directory is
// configured and the pack does not hold the key yet, appends its record to
// the pack. A failed append returns the error with the artifact still served
// from memory.
func (c *Cache) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("cache: invalid content address %q", key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.admit(key, data)
	if _, ok := c.index[key]; ok || c.path == "" {
		return nil
	}
	if c.pack == nil {
		f, err := os.OpenFile(c.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("cache: %w", err)
		}
		c.pack = f
	}
	sum := checksum(key, data)
	c.buf = appendHeader(c.buf[:0], key, int64(len(data)), sum)
	c.buf = append(append(c.buf, data...), '\n')
	if _, err := c.pack.Write(c.buf); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	end, err := c.pack.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	c.index[key] = record{off: end - 1 - int64(len(data)), n: int64(len(data)), sum: sum}
	return nil
}

// admit inserts or refreshes a memory entry and evicts beyond the bound.
// Callers hold c.mu.
func (c *Cache) admit(key string, data []byte) {
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry).data = data
		return
	}
	c.byKey[key] = c.ll.PushFront(&entry{key: key, data: data})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*entry).key)
	}
}

// Len returns the number of artifacts resident in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Close releases the pack. The cache is memory-only from then on.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.path = ""
	if c.pack == nil {
		return nil
	}
	err := c.pack.Close()
	c.pack = nil
	return err
}
