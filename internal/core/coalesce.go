package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"vizndp/internal/arraycache"
	"vizndp/internal/bitset"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/lru"
	"vizndp/internal/telemetry"
)

// Scan-sharing metrics (default registry):
//
//	core.scan.requests        counter — pre-filter fetches admitted to the handler
//	core.scan.passes          counter — single-isovalue or single-range scan passes actually run
//	core.scan.batches         counter — coalesced batches executed
//	core.scan.coalesced       counter — requests that rode another request's scan
//	core.scan.batches_aborted counter — batches dropped because every member cancelled
//
// Uncoalesced, passes == sum(len(isovalues)) over contour requests plus
// one per range request; coalescing pays off exactly when
// passes/requests drops below one — the crowd experiment's gate.
var (
	mScanRequests = telemetry.Default().Counter("core.scan.requests")
	mScanPasses   = telemetry.Default().Counter("core.scan.passes")
	mScanBatches  = telemetry.Default().Counter("core.scan.batches")
	mScanShared   = telemetry.Default().Counter("core.scan.coalesced")
	mScanAborted  = telemetry.Default().Counter("core.scan.batches_aborted")
)

// Server-side payload cache metrics (default registry):
//
//	core.payloadcache.hits      counter — requests served an encoded payload from memory
//	core.payloadcache.misses    counter — lookups that fell through to a scan
//	core.payloadcache.evictions counter — entries dropped to fit the byte bound
//	core.payloadcache.bytes     gauge   — encoded payload bytes currently held
//	core.payloadcache.entries   gauge   — entries currently held
var payloadMetrics = lru.Metrics{
	Hits:      telemetry.Default().Counter("core.payloadcache.hits"),
	Misses:    telemetry.Default().Counter("core.payloadcache.misses"),
	Evictions: telemetry.Default().Counter("core.payloadcache.evictions"),
	Resident:  telemetry.Default().Gauge("core.payloadcache.bytes"),
	Entries:   telemetry.Default().Gauge("core.payloadcache.entries"),
}

// DefaultCoalesceWindow is how long a batch leader lingers after its
// storage read before closing the batch to new members. The scan for a
// production-scale array takes milliseconds, so a sub-millisecond window
// adds little latency while catching bursts of concurrent arrivals.
const DefaultCoalesceWindow = 500 * time.Microsecond

// payloadKey names one cached encoded payload: one filter (by its
// bit-exact key) over one array at one file version, so rewritten
// datasets miss under a fresh key.
type payloadKey struct {
	arraycache.Key
	filter string
}

// payloadEntry is one resident encoded payload plus the stats of the run
// that produced it. Entries are shared between concurrent readers and
// must be treated as immutable.
type payloadEntry struct {
	payload *Payload
	stats   PreFilterStats
}

// Bytes returns the entry's accounted in-memory size.
func (e *payloadEntry) Bytes() int64 { return int64(len(e.payload.Data)) }

// payloadCache is the byte-bounded LRU of encoded pre-filter payloads.
// It never single-flights: concurrent misses are already funneled into
// one scan by the coalescer.
type payloadCache = lru.Cache[payloadKey, *payloadEntry]

// scanMember is one request riding a batch. The leader fills payload,
// stats, and err before closing the batch's done channel; the member's
// own goroutine reads them only after that close.
type scanMember struct {
	// ctx is the member's own request context. The batch runs under the
	// leader's cancellation-stripped context, so this is the only place
	// the member's liveness survives to: the leader consults it after the
	// member set freezes and aborts the scan if every member is gone.
	ctx     context.Context
	f       selectionFilter
	payload *Payload
	stats   *PreFilterStats
	err     error
}

// scanBatch collects the members sharing one scan.
type scanBatch struct {
	done    chan struct{}
	members []*scanMember
}

// coalescer batches concurrent pre-filter requests for the same array
// into shared scans. A batch is keyed by one array at one file version;
// requests with different filters or encodings share it — splitting
// per-caller payloads out of the one scan is the whole point.
type coalescer struct {
	window time.Duration

	mu      sync.Mutex
	batches map[arraycache.Key]*scanBatch
}

// filter produces f's payload over key's array through the one path
// every selection filter takes: payload-cache lookup, then a shared
// batch (WithCoalesce) or a dedicated scan, then back into the cache.
// Every payload is bit-identical to f's local Run. scanned is false when
// the payload came from the cache, so no scan or encode ran for it.
func (s *Server) filter(ctx context.Context, key arraycache.Key, f selectionFilter) (payload *Payload, stats *PreFilterStats, readTime time.Duration, scanned bool, err error) {
	var pk payloadKey
	if s.payloads != nil {
		pk = payloadKey{Key: key, filter: f.key()}
		ev := telemetry.EventFromContext(ctx)
		if e, ok := s.payloads.Get(pk); ok {
			ev.SetAttr("payloadcache", "hit")
			// An honest breakdown for a cached payload: no storage read, no
			// scan. The stats' structural fields (points, bytes) still apply.
			st := e.stats
			st.FilterTime = 0
			return e.payload, &st, 0, false, nil
		}
		ev.SetAttr("payloadcache", "miss")
	}
	if s.coalesce != nil {
		payload, stats, readTime, err = s.joinBatch(ctx, key, f)
	} else {
		payload, stats, readTime, err = s.runDedicated(ctx, key, f)
	}
	if err != nil {
		return nil, nil, 0, false, err
	}
	s.payloads.Put(pk, &payloadEntry{payload: payload, stats: *stats})
	return payload, stats, readTime, true, nil
}

// runDedicated reads the array and runs f's own selection scan under a
// "prefilter" span: the path every fetch takes without WithCoalesce.
func (s *Server) runDedicated(ctx context.Context, key arraycache.Key, f selectionFilter) (*Payload, *PreFilterStats, time.Duration, error) {
	g, field, readTime, err := s.readArrayTimed(ctx, key)
	if err != nil {
		return nil, nil, 0, err
	}
	// Observe cancellation between the pipeline stages: the read may have
	// taken the whole remaining deadline, and the scan is the expensive
	// half.
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	_, span := telemetry.StartSpan(ctx, "prefilter")
	defer span.End()
	payload, stats, err := runFilter(f, g, field)
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, nil, 0, err
	}
	mScanPasses.Add(int64(f.passes()))
	span.SetAttr("array", key.Array)
	span.SetAttr("selected", stats.SelectedPoints)
	span.SetAttr("payloadBytes", stats.PayloadBytes)
	span.SetAttr("encoding", payload.Encoding.String())
	return payload, stats, readTime, nil
}

// joinBatch joins the open batch for key as a follower, or opens one and
// leads it. Only the leader reports a storage read time.
func (s *Server) joinBatch(ctx context.Context, key arraycache.Key, f selectionFilter) (*Payload, *PreFilterStats, time.Duration, error) {
	co := s.coalesce
	ev := telemetry.EventFromContext(ctx)
	m := &scanMember{ctx: ctx, f: f}
	co.mu.Lock()
	if b, ok := co.batches[key]; ok {
		b.members = append(b.members, m)
		co.mu.Unlock()
		mScanShared.Inc()
		ev.SetAttr("coalesced-scan", "follower")
		select {
		case <-b.done:
		case <-ctx.Done():
			// Abandon the batch; the leader still computes this member's
			// payload but nobody reads it.
			return nil, nil, 0, ctx.Err()
		}
		return m.payload, m.stats, 0, m.err
	}
	b := &scanBatch{done: make(chan struct{}), members: []*scanMember{m}}
	co.batches[key] = b
	co.mu.Unlock()
	ev.SetAttr("coalesced-scan", "leader")
	readTime := s.runBatch(ctx, key, b)
	if m.err != nil {
		return nil, nil, 0, m.err
	}
	return m.payload, m.stats, readTime, nil
}

// runBatch executes one shared scan as the batch leader: load the array,
// linger for the batch window so concurrent arrivals can pile on, close
// the batch, run every unique selection part once, and encode each
// member's payload from the union of its parts. Returns the leader's
// storage read time.
func (s *Server) runBatch(ctx context.Context, key arraycache.Key, b *scanBatch) time.Duration {
	co := s.coalesce
	// Followers joined this batch, so its fate must not hang on the
	// leader's caller: detach from the leader's own cancellation and run
	// the batch to completion.
	// vizlint:ignore ctxflow followers joined this batch; it must complete for them even if the leader's caller cancels
	lctx := context.WithoutCancel(ctx)
	defer close(b.done)

	g, field, readTime, err := s.readArrayTimed(lctx, key)
	time.Sleep(co.window)
	co.mu.Lock()
	delete(co.batches, key)
	members := b.members
	co.mu.Unlock()
	// From here the member set is frozen; new arrivals lead a new batch.

	if err != nil {
		for _, m := range members {
			m.err = err
		}
		return 0
	}

	// The batch deliberately outlives the leader's own cancellation (see
	// lctx above) so followers aren't stranded — but when EVERY member has
	// cancelled, nobody is left to read the result and the full scan would
	// run for an empty room. Detect that here, after the member set froze.
	alive := false
	for _, m := range members {
		if m.ctx.Err() == nil {
			alive = true
			break
		}
	}
	if !alive {
		mScanAborted.Inc()
		for _, m := range members {
			m.err = m.ctx.Err()
		}
		return readTime
	}
	mScanBatches.Inc()

	_, span := telemetry.StartSpan(lctx, "prefilter.shared")
	defer span.End()
	scanStart := time.Now()
	sc := scanParts(g, field, members)
	scanTime := time.Since(scanStart)
	mScanPasses.Add(int64(sc.passes))
	span.SetAttr("array", key.Array)
	span.SetAttr("members", len(members))
	span.SetAttr("passes", sc.passes)
	if sc.isoErr != nil {
		span.SetAttr("error", sc.isoErr.Error())
	}

	for _, m := range members {
		encStart := time.Now()
		mask, err := sc.mask(g.NumPoints(), m.f)
		if err != nil {
			m.err = err
			continue
		}
		m.payload, m.stats, m.err = encodeFiltered(mask, field, m.f.encoding(), encStart)
		if m.err == nil {
			// FilterTime charges each member the shared scans plus its own
			// union + encode — what its request actually waited on, not
			// what a dedicated scan would have cost.
			m.stats.FilterTime += scanTime
		}
	}
	return readTime
}

// batchScan holds a batch's selection parts, each scanned once: one mask
// per unique isovalue across the contour members (deduplicated by exact
// bit pattern, first-seen order, from a single SelectCellCornersEach
// pass), and one per unique (lo, hi) across the range members.
type batchScan struct {
	isoMasks []*bitset.Bitset
	isoSlot  map[uint64]int
	isoErr   error
	ranges   map[[2]uint64]rangeMask
	passes   int
}

type rangeMask struct {
	mask *bitset.Bitset
	err  error
}

// scanParts runs every unique selection part among members.
func scanParts(g *grid.Uniform, field *grid.Field, members []*scanMember) *batchScan {
	sc := &batchScan{isoSlot: make(map[uint64]int, 8), ranges: make(map[[2]uint64]rangeMask)}
	var isos []float64
	for _, m := range members {
		switch f := m.f.(type) {
		case *PreFilter:
			for _, v := range f.Isovalues {
				bits := math.Float64bits(v)
				if _, ok := sc.isoSlot[bits]; !ok {
					sc.isoSlot[bits] = len(isos)
					isos = append(isos, v)
				}
			}
		case *RangePreFilter:
			k := rangeKey(f)
			if _, ok := sc.ranges[k]; !ok {
				mask, err := f.selectMask(g, field)
				sc.ranges[k] = rangeMask{mask, err}
				if err == nil {
					sc.passes++
				}
			}
		}
	}
	if len(isos) > 0 {
		sc.isoMasks, sc.isoErr = contour.SelectCellCornersEach(g, field.Values, isos)
		if sc.isoErr != nil {
			sc.isoErr = fmt.Errorf("core: pre-filter %q: %w", field.Name, sc.isoErr)
		} else {
			sc.passes += len(isos)
		}
	}
	return sc
}

// mask returns f's selection as the union of its scanned parts. A range
// filter is a single part, so its mask is returned as is.
func (sc *batchScan) mask(nbits int, f selectionFilter) (*bitset.Bitset, error) {
	switch f := f.(type) {
	case *PreFilter:
		if len(f.Isovalues) == 0 {
			return nil, errNoIsovalues
		}
		if sc.isoErr != nil {
			return nil, sc.isoErr
		}
		sub := make([]*bitset.Bitset, len(f.Isovalues))
		for i, v := range f.Isovalues {
			sub[i] = sc.isoMasks[sc.isoSlot[math.Float64bits(v)]]
		}
		return contour.UnionMasks(nbits, sub...), nil
	case *RangePreFilter:
		r := sc.ranges[rangeKey(f)]
		return r.mask, r.err
	}
	return nil, fmt.Errorf("core: %T cannot ride a coalesced scan", f)
}

func rangeKey(f *RangePreFilter) [2]uint64 {
	return [2]uint64{math.Float64bits(f.Lo), math.Float64bits(f.Hi)}
}
