package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"vizndp/internal/telemetry"
)

type testKey struct{ path, name string }

func (k testKey) ObjectPath() string { return k.path }

type testVal struct{ n int64 }

func (v *testVal) Bytes() int64 { return v.n }

func key(path, name string) testKey { return testKey{path, name} }

func val(n int64) *testVal { return &testVal{n} }

// testMetrics registers a full metric set in a private registry, so
// counters start at zero for every case.
func testMetrics() Metrics {
	r := telemetry.NewRegistry()
	return Metrics{
		Hits:        r.Counter("hits"),
		Misses:      r.Counter("misses"),
		Coalesced:   r.Counter("coalesced"),
		Evictions:   r.Counter("evictions"),
		Resident:    r.Gauge("resident"),
		Entries:     r.Gauge("entries"),
		LoadSeconds: r.Histogram("load", telemetry.DurationBuckets),
	}
}

// TestCache is the one table of LRU behaviours, shared by every cache
// that instantiates the package (arraycache and the payload cache).
func TestCache(t *testing.T) {
	type cache = Cache[testKey, *testVal]
	cases := []struct {
		name string
		max  int64
		run  func(t *testing.T, c *cache, m Metrics)
	}{
		{"eviction order", 100, func(t *testing.T, c *cache, m Metrics) {
			// Fits two 40-byte entries, not three; touching a makes b the
			// victim when c arrives.
			c.Put(key("p", "a"), val(40))
			c.Put(key("p", "b"), val(40))
			if _, ok := c.Get(key("p", "a")); !ok {
				t.Fatal("a not resident")
			}
			c.Put(key("p", "c"), val(40))
			if _, ok := c.Get(key("p", "b")); ok {
				t.Error("LRU victim b still resident")
			}
			for _, k := range []string{"a", "c"} {
				if _, ok := c.Get(key("p", k)); !ok {
					t.Errorf("%s evicted", k)
				}
			}
			if c.Len() != 2 || c.Resident() != 80 {
				t.Errorf("len %d resident %d, want 2/80", c.Len(), c.Resident())
			}
			if m.Evictions.Value() != 1 || m.Entries.Value() != 2 || m.Resident.Value() != 80 {
				t.Errorf("evictions %d entries %d resident %d, want 1/2/80",
					m.Evictions.Value(), m.Entries.Value(), m.Resident.Value())
			}
		}},
		{"oversize not retained", 16, func(t *testing.T, c *cache, m Metrics) {
			c.Put(key("p", "huge"), val(40))
			v, out, err := c.GetOrLoad(key("p", "big"), func() (*testVal, error) { return val(40), nil })
			if err != nil || out != Miss || v == nil {
				t.Fatalf("oversize load: %v/%v", out, err)
			}
			if c.Len() != 0 || c.Resident() != 0 {
				t.Errorf("oversize entry retained: len %d resident %d", c.Len(), c.Resident())
			}
		}},
		{"replace in place", 1000, func(t *testing.T, c *cache, m Metrics) {
			c.Put(key("p", "a"), val(400))
			c.Put(key("p", "b"), val(400))
			c.Put(key("p", "a"), val(100))
			if c.Len() != 2 || c.Resident() != 500 {
				t.Errorf("len %d resident %d after replace, want 2/500", c.Len(), c.Resident())
			}
			if v, ok := c.Get(key("p", "a")); !ok || v.n != 100 {
				t.Errorf("replaced value = %v, %v; want the 100-byte value", v, ok)
			}
		}},
		{"hit and miss counting", 1000, func(t *testing.T, c *cache, m Metrics) {
			loads := 0
			load := func() (*testVal, error) { loads++; return val(10), nil }
			v1, out, err := c.GetOrLoad(key("p", "a"), load)
			if err != nil || out != Miss {
				t.Fatalf("first lookup: %v/%v", out, err)
			}
			v2, out, err := c.GetOrLoad(key("p", "a"), load)
			if err != nil || out != Hit || v1 != v2 {
				t.Fatalf("second lookup: %v/%v, same value %v", out, err, v1 == v2)
			}
			c.Get(key("p", "a"))
			c.Get(key("p", "absent"))
			if loads != 1 || m.Hits.Value() != 2 || m.Misses.Value() != 2 {
				t.Errorf("loads %d hits %d misses %d, want 1/2/2", loads, m.Hits.Value(), m.Misses.Value())
			}
		}},
		{"failed load not cached", 1000, func(t *testing.T, c *cache, m Metrics) {
			boom := errors.New("boom")
			if _, _, err := c.GetOrLoad(key("p", "a"), func() (*testVal, error) { return nil, boom }); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if c.Len() != 0 {
				t.Error("failed load cached")
			}
		}},
		{"single-flight", 1000, func(t *testing.T, c *cache, m Metrics) {
			const waiters = 16
			var loads atomic.Int64
			started := make(chan struct{})
			release := make(chan struct{})
			load := func() (*testVal, error) {
				loads.Add(1)
				close(started)
				<-release
				return val(10), nil
			}
			var wg sync.WaitGroup
			vals := make([]*testVal, waiters)
			outs := make([]Outcome, waiters)
			for i := range vals {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					vals[i], outs[i], _ = c.GetOrLoad(key("p", "a"), load)
				}(i)
			}
			<-started
			close(release)
			wg.Wait()
			if n := loads.Load(); n != 1 {
				t.Fatalf("loads = %d, want 1", n)
			}
			misses := 0
			for i := range vals {
				if vals[i] != vals[0] {
					t.Errorf("waiter %d got a different value", i)
				}
				if outs[i] == Miss {
					misses++
				}
			}
			if misses != 1 {
				t.Errorf("misses = %d, want 1", misses)
			}
		}},
		{"invalidate by path", 1000, func(t *testing.T, c *cache, m Metrics) {
			c.Put(key("p", "a"), val(10))
			c.Put(key("p", "b"), val(10))
			c.Put(key("q", "a"), val(10))
			if n := c.InvalidatePath("p"); n != 2 {
				t.Errorf("invalidated %d, want 2", n)
			}
			if _, ok := c.Get(key("q", "a")); !ok || c.Len() != 1 || c.Resident() != 10 {
				t.Errorf("other path's entry lost: len %d resident %d", c.Len(), c.Resident())
			}
		}},
		{"reset", 1000, func(t *testing.T, c *cache, m Metrics) {
			c.Put(key("p", "a"), val(10))
			c.Put(key("q", "b"), val(10))
			c.Reset()
			if c.Len() != 0 || c.Resident() != 0 || m.Entries.Value() != 0 {
				t.Errorf("after reset: len %d resident %d", c.Len(), c.Resident())
			}
			if _, out, _ := c.GetOrLoad(key("p", "a"), func() (*testVal, error) { return val(10), nil }); out != Miss {
				t.Errorf("post-reset lookup: %v, want Miss", out)
			}
		}},
		{"nil cache inert", 0, func(t *testing.T, c *cache, m Metrics) {
			if c != nil {
				t.Fatal("New(0) returned a live cache")
			}
			c.Put(key("p", "a"), val(10))
			if _, ok := c.Get(key("p", "a")); ok {
				t.Error("nil cache returned a hit")
			}
			loads := 0
			for i := 0; i < 2; i++ {
				if _, out, err := c.GetOrLoad(key("p", "a"), func() (*testVal, error) { loads++; return val(10), nil }); err != nil || out != Miss {
					t.Fatalf("nil cache load %d: %v/%v", i, out, err)
				}
			}
			if loads != 2 {
				t.Errorf("nil cache loads = %d, want 2", loads)
			}
			if c.Len() != 0 || c.Resident() != 0 || c.MaxBytes() != 0 || c.InvalidatePath("p") != 0 {
				t.Error("nil cache reports state")
			}
			c.Reset()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testMetrics()
			tc.run(t, New[testKey, *testVal](tc.max, m), m)
		})
	}
}
