// Package cache implements the content-addressed report cache of the
// experiment service: finished report artifacts keyed by the canonical spec
// hash (experiments.SpecHash), held in a bounded in-memory LRU in front of an
// optional on-disk store.
//
// Keys are content addresses, so entries are immutable: a key is only ever
// associated with one artifact, and Put of an existing key is a no-op
// overwrite with identical bytes. That makes the two tiers trivially
// coherent — the LRU is purely a recency window over the disk store, and
// eviction never loses data when a directory is configured. The disk store
// is one file per artifact (<key>.json, written atomically via rename), so a
// cache directory survives daemon restarts and can be inspected, rsynced or
// garbage-collected with ordinary file tools.
package cache

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Cache is a two-tier content-addressed artifact store. The zero value is
// not usable; construct with New.
type Cache struct {
	dir string
	max int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

// entry is one resident artifact.
type entry struct {
	key  string
	data []byte
}

// New returns a cache holding at most maxEntries artifacts in memory
// (<= 0 selects 64). dir selects the on-disk store; "" keeps the cache
// memory-only (evicted entries are then gone for good). The directory is
// created if missing.
func New(dir string, maxEntries int) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: creating %s: %w", dir, err)
		}
	}
	return &Cache{
		dir:   dir,
		max:   maxEntries,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}, nil
}

// validKey reports whether key is a plausible content address: non-empty
// lowercase hex of bounded length. Rejecting anything else keeps disk paths
// safe by construction (a key can never name a path component).
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

// Get returns the artifact stored under key. A memory miss falls through to
// the disk store and re-admits the artifact to the LRU. The returned bytes
// are shared and must not be modified.
func (c *Cache) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		data := el.Value.(*entry).data
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if data, err := os.ReadFile(c.path(key)); err == nil {
			c.mu.Lock()
			c.admit(key, data)
			c.mu.Unlock()
			return data, true
		}
	}
	return nil, false
}

// Put stores the artifact under key in the LRU and, when a directory is
// configured, on disk (temp file + rename, so a crash never leaves a partial
// artifact under a valid content address).
func (c *Cache) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("cache: invalid content address %q", key)
	}
	if c.dir != "" {
		tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
		if err != nil {
			return fmt.Errorf("cache: %w", err)
		}
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("cache: %w", err)
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("cache: %w", err)
		}
		if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("cache: %w", err)
		}
	}
	c.mu.Lock()
	c.admit(key, data)
	c.mu.Unlock()
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

// path returns the disk path of a validated key.
func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// Len returns the number of artifacts resident in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
