// Package lru is the storage node's one byte-bounded LRU. Both of its
// caches instantiate it: internal/arraycache (decoded arrays) and the
// core server's payload cache (encoded pre-filter payloads).
//
// Every cached value is derived from one stored object, and every key
// names that object's path, so a corrupt read of the object can drop
// everything computed from it (InvalidatePath). Values report their own
// accounted size; a value larger than the whole budget is served but
// never retained. A nil *Cache is valid and means "cache off", so call
// sites need no conditionals.
package lru

import (
	"container/list"
	"sync"
	"time"

	"vizndp/internal/telemetry"
)

// Key is a cache key: comparable, and naming the stored object the
// cached value was computed from.
type Key interface {
	comparable
	ObjectPath() string
}

// Value is a cached value that reports its accounted size in bytes.
// Values are shared between concurrent readers; treat them as immutable.
type Value interface {
	Bytes() int64
}

// Metrics are the telemetry a cache reports to. Hits, Misses,
// Evictions, Resident and Entries are required; Coalesced and
// LoadSeconds are needed only by a cache that uses GetOrLoad.
type Metrics struct {
	Hits, Misses, Coalesced, Evictions *telemetry.Counter
	Resident, Entries                  *telemetry.Gauge
	LoadSeconds                        *telemetry.Histogram
}

// Outcome classifies one GetOrLoad call.
type Outcome int

const (
	// Hit means the entry was already resident.
	Hit Outcome = iota
	// Miss means this call performed the load.
	Miss
	// Coalesced means the call waited on a load started by another.
	Coalesced
)

// String names the outcome for span attributes and logs.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Cache is a byte-bounded LRU with optional single-flight loading. All
// methods are safe for concurrent use.
type Cache[K Key, V Value] struct {
	max     int64
	metrics Metrics

	mu       sync.Mutex
	resident int64
	entries  map[K]*list.Element
	order    *list.List // front = most recent; values are *item[K, V]
	flights  map[K]*flight[V]
}

type item[K Key, V Value] struct {
	key  K
	val  V
	size int64
}

// flight is one in-progress single-flight load.
type flight[V Value] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache bounded to maxBytes of accounted value size.
// maxBytes <= 0 returns nil, which every method treats as "cache off".
func New[K Key, V Value](maxBytes int64, m Metrics) *Cache[K, V] {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache[K, V]{
		max:     maxBytes,
		metrics: m,
		entries: make(map[K]*list.Element),
		order:   list.New(),
		flights: make(map[K]*flight[V]),
	}
}

// Get returns the resident value for key, if any, refreshing its
// recency and counting the lookup as a hit or a miss.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.metrics.Misses.Inc()
		return zero, false
	}
	c.order.MoveToFront(el)
	c.metrics.Hits.Inc()
	return el.Value.(*item[K, V]).val, true
}

// Put retains v under key, evicting from the LRU tail until it fits.
// Re-putting a resident key replaces its value in place.
func (c *Cache[K, V]) Put(key K, v V) {
	if c == nil {
		return
	}
	size := v.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, v, size)
}

// GetOrLoad returns the cached value for key, loading it with load on a
// miss. Concurrent calls for the same key while a load is in progress
// wait for that one load instead of issuing their own; a failed load is
// not cached and its error is returned to every waiter. A nil cache
// calls load every time.
func (c *Cache[K, V]) GetOrLoad(key K, load func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := load()
		return v, Miss, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		c.metrics.Hits.Inc()
		return el.Value.(*item[K, V]).val, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		c.metrics.Coalesced.Inc()
		return f.val, Coalesced, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.metrics.Misses.Inc()
	start := time.Now()
	f.val, f.err = load()
	c.metrics.LoadSeconds.Observe(time.Since(start).Seconds())
	var size int64
	if f.err == nil {
		size = f.val.Bytes()
	}

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insertLocked(key, f.val, size)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, Miss, f.err
}

// insertLocked adds an entry, evicting from the LRU tail until it fits.
// Values larger than the whole budget are never retained.
func (c *Cache[K, V]) insertLocked(key K, v V, size int64) {
	if size > c.max {
		return
	}
	if el, ok := c.entries[key]; ok {
		// A racing load of the same key already landed; keep the newer
		// value and refresh recency.
		it := el.Value.(*item[K, V])
		c.resident += size - it.size
		it.val, it.size = v, size
		c.order.MoveToFront(el)
		c.metrics.Resident.Set(c.resident)
		return
	}
	for c.resident+size > c.max {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		c.metrics.Evictions.Inc()
	}
	c.entries[key] = c.order.PushFront(&item[K, V]{key: key, val: v, size: size})
	c.resident += size
	c.metrics.Resident.Set(c.resident)
	c.metrics.Entries.Set(int64(len(c.entries)))
}

// removeLocked drops one element from the LRU and the index.
func (c *Cache[K, V]) removeLocked(el *list.Element) {
	it := el.Value.(*item[K, V])
	c.order.Remove(el)
	delete(c.entries, it.key)
	c.resident -= it.size
	c.metrics.Resident.Set(c.resident)
	c.metrics.Entries.Set(int64(len(c.entries)))
}

// Reset drops every resident entry (in-flight loads are unaffected and
// will repopulate). Used by benchmarks to re-measure cold paths.
func (c *Cache[K, V]) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		c.removeLocked(el)
		el = next
	}
}

// InvalidatePath drops every resident entry whose key names path and
// reports how many were removed. Used when a read of path is found
// corrupt: whatever was computed from those bytes earlier is no longer
// trustworthy.
func (c *Cache[K, V]) InvalidatePath(path string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*item[K, V]).key.ObjectPath() == path {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	return n
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Resident returns the accounted resident byte total.
func (c *Cache[K, V]) Resident() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// MaxBytes returns the configured budget (0 for a nil cache).
func (c *Cache[K, V]) MaxBytes() int64 {
	if c == nil {
		return 0
	}
	return c.max
}
