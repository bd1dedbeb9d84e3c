package core

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vizndp/internal/arraycache"
	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

// startNDPOpts is startNDP with server options, for the coalescing and
// payload-cache paths.
func startNDPOpts(t *testing.T, opts ...ServerOption) (*Client, *grid.Dataset) {
	t.Helper()
	g, f := sphereField(24)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run", "ts0.vnd")
	if err := vtkio.WriteFile(path, ds, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(os.DirFS(dir), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	client, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return client, ds
}

// localPayload computes the uncoalesced ground-truth payload bytes.
func localPayload(t *testing.T, ds *grid.Dataset, isos []float64, enc Encoding) []byte {
	t.Helper()
	return localRun(t, ds, &PreFilter{Isovalues: isos, Encoding: enc})
}

// localRun computes any filter's ground-truth payload bytes with its
// local Run.
func localRun(t *testing.T, ds *grid.Dataset, f selectionFilter) []byte {
	t.Helper()
	p, _, err := runFilter(f, ds.Grid, ds.Field("d"))
	if err != nil {
		t.Fatal(err)
	}
	return p.Data
}

// remoteRun fetches f's payload over client through the public API of
// its filter type.
func remoteRun(client *Client, f selectionFilter) (*Payload, *FetchStats, error) {
	switch f := f.(type) {
	case *RangePreFilter:
		return client.FetchRange("run/ts0.vnd", "d", f.Lo, f.Hi, f.Encoding)
	case *PreFilter:
		return client.FetchFiltered("run/ts0.vnd", "d", f.Isovalues, f.Encoding)
	}
	return nil, nil, fmt.Errorf("unknown filter %T", f)
}

func TestCoalesceBatchSharesScan(t *testing.T) {
	// A long batch window makes the test deterministic: whichever request
	// arrives first leads and lingers; the other must join its batch.
	client, ds := startNDPOpts(t,
		WithCoalesce(200*time.Millisecond),
		WithCacheBytes(16<<20),
		WithPayloadCacheBytes(16<<20))

	requests0 := mScanRequests.Value()
	passes0 := mScanPasses.Value()
	batches0 := mScanBatches.Value()
	shared0 := mScanShared.Value()

	// Two contour requests and two identical range requests on one array:
	// one batch, one pass per unique isovalue plus one for the range.
	filters := []selectionFilter{
		&PreFilter{Isovalues: []float64{7}},
		&PreFilter{Isovalues: []float64{9}},
		&RangePreFilter{Lo: 6, Hi: 8},
		&RangePreFilter{Lo: 6, Hi: 8},
	}
	payloads := make([]*Payload, len(filters))
	errs := make([]error, len(filters))
	var wg sync.WaitGroup
	for i, f := range filters {
		wg.Add(1)
		go func(i int, f selectionFilter) {
			defer wg.Done()
			payloads[i], _, errs[i] = remoteRun(client, f)
		}(i, f)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}

	if d := mScanRequests.Value() - requests0; d != 4 {
		t.Errorf("requests delta = %d, want 4", d)
	}
	if d := mScanBatches.Value() - batches0; d != 1 {
		t.Errorf("batches delta = %d, want 1 (requests did not coalesce)", d)
	}
	if d := mScanShared.Value() - shared0; d != 3 {
		t.Errorf("coalesced delta = %d, want 3", d)
	}
	if d := mScanPasses.Value() - passes0; d != 3 {
		t.Errorf("passes delta = %d, want 3 (one per unique isovalue and range)", d)
	}

	// The split payloads must match dedicated uncoalesced runs bit for bit.
	for i, f := range filters {
		if !bytes.Equal(payloads[i].Data, localRun(t, ds, f)) {
			t.Errorf("coalesced payload %d (%T) differs from dedicated run", i, f)
		}
	}
	payloadA, isosA := payloads[0], []float64{7}

	// Identical repeats are now payload-cache hits: no further scan passes,
	// same bytes.
	hits0 := payloadMetrics.Hits.Value()
	passes1 := mScanPasses.Value()
	rep, _, err := client.FetchFiltered("run/ts0.vnd", "d", isosA, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Data, payloadA.Data) {
		t.Error("cached payload differs from original")
	}
	if d := payloadMetrics.Hits.Value() - hits0; d != 1 {
		t.Errorf("payload cache hits delta = %d, want 1", d)
	}
	if d := mScanPasses.Value() - passes1; d != 0 {
		t.Errorf("cache hit ran %d scan passes", d)
	}
}

func TestCoalesceConcurrentBitIdentical(t *testing.T) {
	// The -race bit-identity gate: many concurrent callers, same array,
	// different contour isovalues and threshold ranges riding the same
	// batches, no payload cache so every round really scans.
	client, ds := startNDPOpts(t, WithCoalesce(time.Millisecond), WithCacheBytes(16<<20))

	filters := []selectionFilter{
		&PreFilter{Isovalues: []float64{6}},
		&PreFilter{Isovalues: []float64{7}},
		&RangePreFilter{Lo: 5, Hi: 8},
		&PreFilter{Isovalues: []float64{8}},
		&PreFilter{Isovalues: []float64{9}},
		&RangePreFilter{Lo: 7, Hi: 7.5, Encoding: EncIndexValue},
		&PreFilter{Isovalues: []float64{7, 9}},
	}
	want := make([][]byte, len(filters))
	for i, f := range filters {
		want[i] = localRun(t, ds, f)
	}

	batches0 := mScanBatches.Value()
	const workers = 8
	const rounds = 5
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(filters)
				p, _, err := remoteRun(client, filters[i])
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(p.Data, want[i]) {
					t.Errorf("worker %d round %d: %T payload differs from its local Run", w, r, filters[i])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 40 requests in at most 40 batches; fewer means some coalesced.
	if d := mScanBatches.Value() - batches0; d == 0 || d > workers*rounds {
		t.Errorf("batches delta = %d, want 1..%d", d, workers*rounds)
	}
}

func TestCoalesceEmptyIsovaluesRejected(t *testing.T) {
	client, _ := startNDPOpts(t, WithCoalesce(time.Millisecond))
	if _, _, err := client.FetchFiltered("run/ts0.vnd", "d", nil, EncAuto); err == nil {
		t.Error("empty isovalues accepted on the coalesced path")
	}
}

func TestCoalesceMissingPathRejected(t *testing.T) {
	client, _ := startNDPOpts(t, WithCoalesce(time.Millisecond), WithPayloadCacheBytes(1<<20))
	if _, _, err := client.FetchFiltered("run/ghost.vnd", "d", []float64{1}, EncAuto); err == nil {
		t.Error("missing path accepted on the coalesced path")
	}
}

func TestPayloadCacheOnlyMode(t *testing.T) {
	// Payload cache without coalescing: the first fetch scans, the repeat
	// is served from cache, byte-identical, with neither a scan pass nor
	// an observation of the filter-time histogram (a cache hit's zero
	// filter time would skew it toward zero).
	client, ds := startNDPOpts(t, WithPayloadCacheBytes(16<<20))
	for _, f := range []selectionFilter{
		&PreFilter{Isovalues: []float64{7}},
		&RangePreFilter{Lo: 6, Hi: 8},
	} {
		p1, _, err := remoteRun(client, f)
		if err != nil {
			t.Fatal(err)
		}
		passes0 := mScanPasses.Value()
		filtered0 := mFetchFiltSecs.Snapshot().Count
		p2, _, err := remoteRun(client, f)
		if err != nil {
			t.Fatal(err)
		}
		if d := mScanPasses.Value() - passes0; d != 0 {
			t.Errorf("%T: repeat fetch ran %d scan passes", f, d)
		}
		if d := mFetchFiltSecs.Snapshot().Count - filtered0; d != 0 {
			t.Errorf("%T: payload-cache hit observed the filter-time histogram %d times", f, d)
		}
		if !bytes.Equal(p1.Data, p2.Data) {
			t.Errorf("%T: cached payload differs", f)
		}
		if !bytes.Equal(p1.Data, localRun(t, ds, f)) {
			t.Errorf("%T: payload differs from its local Run", f)
		}
	}
}

// TestPayloadCacheLRUEviction drives the payload cache exactly as the
// server instantiates it: LRU eviction order, the oversize rule,
// replace-in-place, and a nil (disabled) cache.
func TestPayloadCacheLRUEviction(t *testing.T) {
	mk := func(n int) *payloadEntry { return &payloadEntry{payload: &Payload{Data: make([]byte, n)}} }
	key := func(iso string) payloadKey {
		return payloadKey{Key: arraycache.Key{Path: "p", Array: "d"}, filter: iso}
	}

	s := &Server{}
	WithPayloadCacheBytes(1000)(s)
	c := s.payloads
	c.Put(key("a"), mk(400))
	c.Put(key("b"), mk(400))
	if c.Len() != 2 || c.Resident() != 800 {
		t.Fatalf("len=%d resident=%d, want 2/800", c.Len(), c.Resident())
	}
	// Touch "a" so "b" is the LRU victim when "c" displaces 400 bytes.
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("entry a missing")
	}
	c.Put(key("c"), mk(400))
	if _, ok := c.Get(key("b")); ok {
		t.Error("LRU victim b still resident")
	}
	if _, ok := c.Get(key("a")); !ok {
		t.Error("recently used a evicted")
	}
	if c.Len() != 2 || c.Resident() != 800 {
		t.Errorf("len=%d resident=%d after eviction, want 2/800", c.Len(), c.Resident())
	}

	// An entry over the whole budget is never retained.
	c.Put(key("huge"), mk(2000))
	if _, ok := c.Get(key("huge")); ok {
		t.Error("oversized entry retained")
	}

	// Re-putting an existing key replaces in place.
	c.Put(key("a"), mk(100))
	if c.Resident() != 500 {
		t.Errorf("resident=%d after replace, want 500", c.Resident())
	}

	// A disabled cache is nil and inert.
	off := &Server{}
	WithPayloadCacheBytes(0)(off)
	off.payloads.Put(key("x"), mk(10))
	if _, ok := off.payloads.Get(key("x")); ok {
		t.Error("nil cache returned a hit")
	}
	if off.payloads.Len() != 0 || off.payloads.Resident() != 0 {
		t.Error("nil cache reports contents")
	}
}

// TestCoalesceAbortAllCancelled is the regression test for the empty-room
// scan: runBatch deliberately detaches from the leader's cancellation so
// followers aren't stranded, but when every member has cancelled before
// the member set freezes, the batch must abort instead of running the
// full scan for nobody. Before the fix the scan ran to completion under
// the cancellation-stripped context and counted as a normal batch.
func TestCoalesceAbortAllCancelled(t *testing.T) {
	g, f := sphereField(24)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "run"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := vtkio.WriteFile(filepath.Join(dir, "run", "ts0.vnd"), ds, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	// A long window gives the test time to line up members and cancel
	// them all while the leader lingers.
	srv := NewServer(os.DirFS(dir), WithCoalesce(300*time.Millisecond))
	t.Cleanup(func() { srv.Close() })

	key, err := srv.startFetch(context.Background(), "run/ts0.vnd", "d")
	if err != nil {
		t.Fatal(err)
	}
	aborted0 := mScanAborted.Value()
	batches0 := mScanBatches.Value()
	passes0 := mScanPasses.Value()

	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelA()
	defer cancelB()

	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, _, errA = srv.filter(ctxA, key, &PreFilter{Isovalues: []float64{7}, Encoding: EncIndexValue})
	}()
	// Wait for the leader's batch to register, then join as a follower.
	waitFor(t, func() bool {
		srv.coalesce.mu.Lock()
		defer srv.coalesce.mu.Unlock()
		return len(srv.coalesce.batches) == 1
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, _, errB = srv.filter(ctxB, key, &PreFilter{Isovalues: []float64{9}, Encoding: EncIndexValue})
	}()
	waitFor(t, func() bool {
		srv.coalesce.mu.Lock()
		defer srv.coalesce.mu.Unlock()
		for _, b := range srv.coalesce.batches {
			if len(b.members) == 2 {
				return true
			}
		}
		return false
	})
	// Every member bails while the leader is still inside the window.
	cancelA()
	cancelB()
	wg.Wait()

	if errA == nil || errB == nil {
		t.Fatalf("cancelled members returned nil errors: %v / %v", errA, errB)
	}
	if got := mScanAborted.Value() - aborted0; got != 1 {
		t.Errorf("core.scan.batches_aborted rose by %d, want 1", got)
	}
	if got := mScanBatches.Value() - batches0; got != 0 {
		t.Errorf("core.scan.batches rose by %d, want 0 (batch must abort)", got)
	}
	if got := mScanPasses.Value() - passes0; got != 0 {
		t.Errorf("core.scan.passes rose by %d, want 0 (no scan for an empty room)", got)
	}
}

// waitFor polls cond for up to ~2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
