package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net"
	"time"

	"vizndp/internal/arraycache"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/lru"
	"vizndp/internal/rpc"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// Server-side NDP metrics, reported to the default telemetry registry:
// how many pre-filtered fetches ran, how much the pre-filter cut the
// transfer, and where the server-side time went.
var (
	mFetchCount     = telemetry.Default().Counter("ndp.fetch.count")
	mFetchErrors    = telemetry.Default().Counter("ndp.fetch.errors")
	mFetchCorrupt   = telemetry.Default().Counter("ndp.fetch.corrupt")
	mFetchRawBytes  = telemetry.Default().Counter("ndp.fetch.bytes.raw")
	mFetchPayload   = telemetry.Default().Counter("ndp.fetch.bytes.payload")
	mFetchSelected  = telemetry.Default().Counter("ndp.fetch.points.selected")
	mFetchReadSecs  = telemetry.Default().Histogram("ndp.fetch.read.seconds", telemetry.DurationBuckets)
	mFetchFiltSecs  = telemetry.Default().Histogram("ndp.fetch.filter.seconds", telemetry.DurationBuckets)
	mFetchSelectPPM = telemetry.Default().Gauge("ndp.fetch.selectivity.ppm")
)

var serverLog = telemetry.Logger("ndpserver")

// RPC method names exposed by the NDP server.
const (
	MethodList       = "ndp.list"
	MethodDescribe   = "ndp.describe"
	MethodFetch      = "ndp.fetch"
	MethodFetchRange = "ndp.fetchrange"
	MethodFetchSlice = "ndp.fetchslice"
	MethodFetchRaw   = "ndp.fetchraw"
	MethodManifest   = "ndp.manifest"
)

// Server is the storage-side NDP service: a partial pipeline consisting
// of a source (reading dataset files through the given filesystem, which
// on the storage node is an s3fs mount colocated with the object store)
// and a pre-filter. Clients drive it over msgpack-rpc.
type Server struct {
	fsys      fs.FS
	rpc       *rpc.Server
	cache     *arraycache.Cache
	payloads  *payloadCache // nil when off
	coalesce  *coalescer    // nil when off
	scrub     *Scrubber
	rpcOpts   []rpc.ServerOption
	shardName string
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithCacheBytes bounds a storage-side cache of decoded arrays to
// maxBytes: repeated fetches of the same (path, array) — the isovalue
// sweep workload — skip the storage read and decompression entirely.
// maxBytes <= 0 disables the cache (the default).
func WithCacheBytes(maxBytes int64) ServerOption {
	return func(s *Server) { s.cache = arraycache.New(maxBytes) }
}

// WithCoalesce batches concurrent pre-filter fetches (contour and range)
// of the same array into one shared scan: the first request leads, loads
// the array, lingers for window while concurrent arrivals pile on, then
// scans once per unique isovalue and once per unique range and splits a
// bit-identical payload out for each member. window <= 0 uses
// DefaultCoalesceWindow.
func WithCoalesce(window time.Duration) ServerOption {
	return func(s *Server) {
		if window <= 0 {
			window = DefaultCoalesceWindow
		}
		s.coalesce = &coalescer{window: window, batches: make(map[arraycache.Key]*scanBatch)}
	}
}

// WithPayloadCacheBytes bounds a storage-side cache of encoded pre-filter
// payloads to maxBytes: an identical repeat request — same array version,
// filter (isovalues or range), and encoding — skips the read AND the
// scan. Composes with WithCoalesce; alone it enables the cache without
// batching. maxBytes <= 0 disables the cache (the default).
func WithPayloadCacheBytes(maxBytes int64) ServerOption {
	return func(s *Server) { s.payloads = lru.New[payloadKey, *payloadEntry](maxBytes, payloadMetrics) }
}

// WithShardName stamps every fetch's server-side wide event with a
// shard= attribute, so a sharded deployment's per-node events can be
// sliced apart at /debug/requests. Empty (the default) stamps nothing.
func WithShardName(name string) ServerOption {
	return func(s *Server) { s.shardName = name }
}

// WithScrubber attaches a background integrity scrubber. Requests for
// an object the scrubber has quarantined are rejected up front with the
// data-level rpc.ErrCorrupt instead of re-reading known-bad bytes.
func WithScrubber(sc *Scrubber) ServerOption {
	return func(s *Server) { s.scrub = sc }
}

// WithMaxInFlight bounds how many requests execute concurrently
// (admission control); further requests wait in the bounded queue. See
// rpc.WithMaxInFlight. n <= 0 means unbounded, the default.
func WithMaxInFlight(n int) ServerOption {
	return func(s *Server) { s.rpcOpts = append(s.rpcOpts, rpc.WithMaxInFlight(n)) }
}

// WithQueue bounds the admission wait queue; past it the server sheds
// requests with the retryable busy error instead of letting work pile
// up. See rpc.WithQueue. Only meaningful with WithMaxInFlight.
func WithQueue(n int) ServerOption {
	return func(s *Server) { s.rpcOpts = append(s.rpcOpts, rpc.WithQueue(n)) }
}

// NewServer builds an NDP server over the given filesystem.
func NewServer(fsys fs.FS, opts ...ServerOption) *Server {
	s := &Server{fsys: fsys}
	for _, opt := range opts {
		opt(s)
	}
	s.rpc = rpc.NewServer(s.rpcOpts...)
	s.rpc.Register(MethodList, s.handleList)
	s.rpc.Register(MethodDescribe, s.handleDescribe)
	s.rpc.Register(MethodFetch, s.handleFetch)
	s.rpc.Register(MethodFetchRange, s.handleFetchRange)
	s.rpc.Register(MethodFetchSlice, s.handleFetchSlice)
	s.rpc.Register(MethodFetchRaw, s.handleFetchRaw)
	s.rpc.Register(MethodManifest, s.handleManifest)
	return s
}

// Cache exposes the array cache (nil when disabled) for tests and
// benchmarks that need to reset or inspect it.
func (s *Server) Cache() *arraycache.Cache { return s.cache }

// Serve accepts NDP connections from ln until closed. A deliberate stop
// (Close or Shutdown) yields rpc.ErrShutdown.
func (s *Server) Serve(ln net.Listener) error { return s.rpc.Serve(ln) }

// Close shuts the server down immediately, cutting in-flight fetches.
func (s *Server) Close() { s.rpc.Close() }

// Shutdown drains the server gracefully: new requests are shed with the
// retryable busy error while accepted fetches finish, then connections
// close. When ctx expires first the rest are cut off and ctx's error
// returned; nil means no accepted request was lost.
func (s *Server) Shutdown(ctx context.Context) error { return s.rpc.Shutdown(ctx) }

// Health reports the underlying rpc server's ok/draining/overloaded
// state, as served by the built-in rpc.MethodHealthz probe.
func (s *Server) Health() string { return s.rpc.Health() }

func argString(args []any, i int, what string) (string, error) {
	if i >= len(args) {
		return "", fmt.Errorf("core: missing %s argument", what)
	}
	v, ok := args[i].(string)
	if !ok {
		return "", fmt.Errorf("core: %s argument is %T, want string", what, args[i])
	}
	return v, nil
}

// asFloat accepts a msgpack-decoded number in any numeric wire shape: a
// conforming msgpack-rpc peer encodes 1.0 as an int, and our decoder
// yields float32 for float32-format values and uint64 above MaxInt64.
// The client-side decoders (float3, floatSlice) are equally liberal;
// this keeps the server from rejecting what the protocol allows.
func asFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	}
	return 0, false
}

// argFloat decodes one numeric argument via asFloat.
func argFloat(args []any, i int, what string) (float64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("core: missing %s argument", what)
	}
	f, ok := asFloat(args[i])
	if !ok {
		return 0, fmt.Errorf("core: %s argument is %T, want number", what, args[i])
	}
	return f, nil
}

func (s *Server) handleList(_ context.Context, args []any) (any, error) {
	dir, err := argString(args, 0, "dir")
	if err != nil {
		return nil, err
	}
	entries, err := fs.ReadDir(s.fsys, dir)
	if err != nil {
		return nil, err
	}
	out := make([]any, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			name += "/"
		}
		out = append(out, name)
	}
	return out, nil
}

// openReader opens a dataset file for selective reads.
func (s *Server) openReader(path string) (*vtkio.Reader, io.Closer, error) {
	f, err := s.fsys.Open(path)
	if err != nil {
		return nil, nil, err
	}
	ra, ok := f.(io.ReaderAt)
	if !ok {
		f.Close()
		return nil, nil, fmt.Errorf("core: %s does not support random access", path)
	}
	r, err := vtkio.OpenReader(ra)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

func (s *Server) handleDescribe(ctx context.Context, args []any) (any, error) {
	path, err := argString(args, 0, "path")
	if err != nil {
		return nil, err
	}
	if err := s.quarantined(path); err != nil {
		return nil, err
	}
	r, closer, err := s.openReader(path)
	if err != nil {
		if corruptionError(err) {
			return nil, s.failCorrupt(ctx, path, err)
		}
		return nil, err
	}
	defer closer.Close()
	h := r.Header()
	arrays := make([]any, 0, len(h.Arrays))
	for _, a := range h.Arrays {
		arrays = append(arrays, map[string]any{
			"name":  a.Name,
			"codec": a.Codec,
			"comp":  a.CompressedSize(),
			"raw":   a.RawSize(),
		})
	}
	out := map[string]any{
		"dims":    []any{int64(h.Dims[0]), int64(h.Dims[1]), int64(h.Dims[2])},
		"origin":  []any{h.Origin[0], h.Origin[1], h.Origin[2]},
		"spacing": []any{h.Spacing[0], h.Spacing[1], h.Spacing[2]},
		"arrays":  arrays,
	}
	// Rectilinear files ship their (small) per-axis coordinate arrays so
	// the client can contour with the true geometry; payload fetches are
	// unaffected, being purely topological.
	if rect := h.RectGrid(); rect != nil {
		out["coordsX"] = floatsToAny(rect.X)
		out["coordsY"] = floatsToAny(rect.Y)
		out["coordsZ"] = floatsToAny(rect.Z)
	}
	return out, nil
}

func floatsToAny(v []float64) []any {
	out := make([]any, len(v))
	for i, f := range v {
		out[i] = f
	}
	return out
}

// fileVersion stats path to derive the cache key's file version. A
// rewritten file (new mtime or size) therefore misses under a fresh key
// and the stale entry ages out of the LRU. Stores that report no mtime
// (object-store mounts like s3fs) would make a same-size overwrite
// invisible — mtime and size both unchanged — so for those the version
// mixes in a content fingerprint of the file's first and last pages,
// which any rewrite of a .vnd file perturbs (the header JSON and the
// chunk tail both move with the data).
func (s *Server) fileVersion(path string) (arraycache.Version, error) {
	info, err := fs.Stat(s.fsys, path)
	if err != nil {
		return arraycache.Version{}, err
	}
	v := arraycache.Version{Size: info.Size()}
	if mt := info.ModTime(); !mt.IsZero() {
		v.MTime = mt.UnixNano()
		return v, nil
	}
	fp, err := s.fileFingerprint(path, info.Size())
	if err != nil {
		return arraycache.Version{}, err
	}
	v.Fingerprint = fp
	return v, nil
}

// fingerprintPage is how much of each end of a zero-mtime file feeds
// its version fingerprint: two page-sized reads per version check, paid
// only on stores that cannot report mtimes.
const fingerprintPage = 4096

// fileFingerprint hashes the first and last fingerprintPage bytes of
// path (the whole file when smaller).
func (s *Server) fileFingerprint(path string, size int64) (uint64, error) {
	f, err := s.fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	ra, ok := f.(io.ReaderAt)
	if !ok {
		// The fetch path would reject this file anyway (openReader needs
		// random access); mirror its error.
		return 0, fmt.Errorf("core: %s does not support random access", path)
	}
	h := fnv.New64a()
	head := size
	if head > fingerprintPage {
		head = fingerprintPage
	}
	buf := make([]byte, head)
	if _, err := ra.ReadAt(buf, 0); err != nil {
		return 0, fmt.Errorf("core: fingerprinting %s: %w", path, err)
	}
	h.Write(buf)
	if size > fingerprintPage {
		if _, err := ra.ReadAt(buf[:fingerprintPage], size-fingerprintPage); err != nil {
			return 0, fmt.Errorf("core: fingerprinting %s: %w", path, err)
		}
		h.Write(buf[:fingerprintPage])
	}
	return h.Sum64(), nil
}

// corruptionError reports whether err means the stored bytes lied:
// a page failed its recorded CRC, or a read came up short against the
// sizes the header promised (a truncated object). Codec errors are NOT
// classified — checksum verification runs before decompression, so on
// checksummed data a codec failure indicates a bug, not bad storage.
func corruptionError(err error) bool {
	return errors.Is(err, vtkio.ErrChecksum) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.EOF)
}

// failCorrupt converts a detected-corruption read failure into the
// wire-preserved rpc.ErrCorrupt, counts it, stamps the request's wide
// event, and evicts everything previously decoded from the same path —
// resident entries may predate the damage, but a store that corrupted
// one read has forfeited trust in cheaper copies of the same object.
func (s *Server) failCorrupt(ctx context.Context, path string, err error) error {
	mFetchCorrupt.Inc()
	dropped := s.cache.InvalidatePath(path) + s.payloads.InvalidatePath(path)
	ev := telemetry.EventFromContext(ctx)
	ev.SetAttr("corrupt", path)
	ev.SetAttr("corruptEvicted", dropped)
	serverLog.Warn("corrupt read", "path", path, "evicted", dropped, "err", err)
	return fmt.Errorf("%w: %s: %w", rpc.ErrCorrupt, path, err)
}

// quarantined rejects paths the scrubber has flagged, before any read.
func (s *Server) quarantined(path string) error {
	if s.scrub == nil {
		return nil
	}
	if reason := s.scrub.Quarantined(path); reason != "" {
		mFetchCorrupt.Inc()
		return fmt.Errorf("%w: %s quarantined: %s", rpc.ErrCorrupt, path, reason)
	}
	return nil
}

// readArrayOnce performs one actual storage read: open, parse the
// header, read + decompress the array. The returned entry stays valid
// after the backing file is closed.
func (s *Server) readArrayOnce(path, array string) (*arraycache.Entry, error) {
	r, closer, err := s.openReader(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	field, err := r.ReadArray(array)
	if err != nil {
		return nil, err
	}
	return &arraycache.Entry{Grid: r.Grid(), Field: field}, nil
}

// readArrayTimed reads one array under a "read" span, reporting the
// storage read (+ decompression) time. On a cache hit the elapsed time
// is the in-memory lookup — effectively zero — so the readns a client
// sees stays an honest account of storage work actually performed. The
// lookup outcome is stamped onto the request's wide event.
func (s *Server) readArrayTimed(ctx context.Context, key arraycache.Key) (*grid.Uniform, *grid.Field, time.Duration, error) {
	path, array := key.Path, key.Array
	_, span := telemetry.StartSpan(ctx, "read")
	defer span.End()
	span.SetAttr("path", path)
	span.SetAttr("array", array)
	ev := telemetry.EventFromContext(ctx)
	ev.SetAttr("path", path)
	ev.SetAttr("array", array)
	start := time.Now()
	// Without a cache every call reads storage; with one, concurrent
	// requests single-flight onto one read and repeats are served
	// resident.
	entry, outcome, err := s.cache.GetOrLoad(key, func() (*arraycache.Entry, error) {
		return s.readArrayOnce(path, array)
	})
	if err != nil {
		if corruptionError(err) {
			// The failed load was never cached (GetOrLoad caches only on
			// success, and every coalesced waiter receives this same
			// error); invalidation covers entries decoded from earlier,
			// clean reads.
			err = s.failCorrupt(ctx, path, err)
		}
		span.SetAttr("error", err.Error())
		return nil, nil, 0, err
	}
	readTime := time.Since(start)
	span.SetAttr("cache", outcome.String())
	ev.SetCache(outcome.String())
	if outcome == arraycache.Miss {
		// Only actual storage reads feed the read-time histogram; hits
		// and coalesced waits would skew it toward zero / double-count.
		mFetchReadSecs.Observe(readTime.Seconds())
	}
	return entry.Grid, entry.Field, readTime, nil
}

// recordFetch reports one pre-filtered fetch to the metrics registry.
// scanned is false for a payload served from the payload cache: no scan
// or encode ran, so its zero filter time must not reach the histogram.
func recordFetch(path, array string, st *PreFilterStats, scanned bool) {
	mFetchCount.Inc()
	mFetchRawBytes.Add(st.RawBytes)
	mFetchPayload.Add(st.PayloadBytes)
	mFetchSelected.Add(int64(st.SelectedPoints))
	if scanned {
		mFetchFiltSecs.Observe(st.FilterTime.Seconds())
	}
	mFetchSelectPPM.Set(int64(st.Selectivity() * 1e6))
	serverLog.Debug("pre-filtered fetch",
		"path", path, "array", array,
		"selected", st.SelectedPoints,
		"payloadBytes", st.PayloadBytes,
		"rawBytes", st.RawBytes,
		"filterTime", st.FilterTime)
}

// pathArrayArgs decodes the (path, array) pair every fetch names first.
func pathArrayArgs(args []any) (path, array string, err error) {
	if path, err = argString(args, 0, "path"); err != nil {
		return "", "", err
	}
	if array, err = argString(args, 1, "array"); err != nil {
		return "", "", err
	}
	return path, array, nil
}

// startFetch is the prelude every fetch shares once its arguments
// parse. An abandoned request (caller deadline expired, connection
// gone) or a quarantined path stops here, before any read, and the
// request's wide event gets the shard stamp. When a cache or the
// coalescer is configured, the file is stat'd once for the version
// that the array cache, the payload cache and the batch all key on.
func (s *Server) startFetch(ctx context.Context, path, array string) (arraycache.Key, error) {
	key := arraycache.Key{Path: path, Array: array}
	if err := ctx.Err(); err != nil {
		return key, err
	}
	if err := s.quarantined(path); err != nil {
		return key, err
	}
	if s.shardName != "" {
		telemetry.EventFromContext(ctx).SetAttr("shard", s.shardName)
	}
	if s.cache == nil && s.payloads == nil && s.coalesce == nil {
		return key, nil
	}
	var err error
	if key.Version, err = s.fileVersion(path); err != nil && corruptionError(err) {
		err = s.failCorrupt(ctx, path, err)
	}
	return key, err
}

// parseFilter decodes the arguments of a selection-filter fetch, the
// one parser behind both wire names: (path, array, isovalues
// [, encoding]) for ndp.fetch and (path, array, lo, hi [, encoding])
// for ndp.fetchrange.
func parseFilter(method string, args []any) (path, array string, f selectionFilter, err error) {
	if path, array, err = pathArrayArgs(args); err != nil {
		return "", "", nil, err
	}
	args = args[2:]
	switch method {
	case MethodFetch:
		if len(args) < 1 {
			return "", "", nil, fmt.Errorf("core: missing isovalues argument")
		}
		raw, ok := args[0].([]any)
		if !ok {
			return "", "", nil, fmt.Errorf("core: isovalues argument is %T, want array", args[0])
		}
		isovalues := make([]float64, len(raw))
		for i, v := range raw {
			if isovalues[i], ok = asFloat(v); !ok {
				return "", "", nil, fmt.Errorf("core: isovalue %d is %T, want number", i, v)
			}
		}
		enc, err := argEncoding(args, 1)
		if err != nil {
			return "", "", nil, err
		}
		return path, array, &PreFilter{Isovalues: isovalues, Encoding: enc}, nil
	case MethodFetchRange:
		if len(args) < 2 {
			return "", "", nil, fmt.Errorf("core: fetchrange needs lo and hi arguments")
		}
		lo, err := argFloat(args, 0, "lo")
		if err != nil {
			return "", "", nil, err
		}
		hi, err := argFloat(args, 1, "hi")
		if err != nil {
			return "", "", nil, err
		}
		enc, err := argEncoding(args, 2)
		if err != nil {
			return "", "", nil, err
		}
		return path, array, &RangePreFilter{Lo: lo, Hi: hi, Encoding: enc}, nil
	}
	return "", "", nil, fmt.Errorf("core: %s is not a selection-filter method", method)
}

// argEncoding decodes the optional payload encoding name at args[i].
func argEncoding(args []any, i int) (Encoding, error) {
	if i >= len(args) {
		return EncAuto, nil
	}
	name, err := argString(args, i, "encoding")
	if err != nil {
		return EncAuto, err
	}
	return ParseEncoding(name)
}

// handleFetch serves ndp.fetch, the split contour filter's storage half.
func (s *Server) handleFetch(ctx context.Context, args []any) (any, error) {
	return s.serveFilter(ctx, MethodFetch, args)
}

// handleFetchRange serves ndp.fetchrange, the split threshold filter's
// storage half: every corner of every cell with a value in [lo, hi].
func (s *Server) handleFetchRange(ctx context.Context, args []any) (any, error) {
	return s.serveFilter(ctx, MethodFetchRange, args)
}

// serveFilter is the one handler body of every selection filter: parse,
// produce the payload through Server.filter (payload cache, coalesced
// batch or dedicated scan), and return it with its timing breakdown.
func (s *Server) serveFilter(ctx context.Context, method string, args []any) (any, error) {
	path, array, f, err := parseFilter(method, args)
	if err != nil {
		return nil, err
	}
	mScanRequests.Inc()
	key, err := s.startFetch(ctx, path, array)
	if err != nil {
		mFetchErrors.Inc()
		return nil, err
	}
	payload, stats, readTime, scanned, err := s.filter(ctx, key, f)
	if err != nil {
		mFetchErrors.Inc()
		return nil, err
	}
	ev := telemetry.EventFromContext(ctx)
	ev.SetAttr("selected", stats.SelectedPoints)
	ev.SetAttr("payloadBytes", stats.PayloadBytes)
	recordFetch(path, array, stats, scanned)
	return map[string]any{
		"payload":  payload.Data,
		"readns":   int64(readTime),
		"filterns": int64(stats.FilterTime),
		"rawbytes": stats.RawBytes,
		"selected": int64(stats.SelectedPoints),
		// Whole-payload CRC32C: new clients verify the bytes survived the
		// wire; old clients ignore the extra key.
		"crc": int64(vtkio.Checksum(payload.Data)),
	}, nil
}

// handleFetchSlice runs the split slice filter's storage half: read the
// array and extract exactly the requested plane, shipping it as a slice
// payload — the near-perfect-reduction case for NDP.
func (s *Server) handleFetchSlice(ctx context.Context, args []any) (any, error) {
	path, array, err := pathArrayArgs(args)
	if err != nil {
		return nil, err
	}
	axisName, err := argString(args, 2, "axis")
	if err != nil {
		return nil, err
	}
	axis, err := contour.ParseAxis(axisName)
	if err != nil {
		return nil, err
	}
	if len(args) < 4 {
		return nil, fmt.Errorf("core: missing slice index argument")
	}
	index64, ok := args[3].(int64)
	if !ok {
		return nil, fmt.Errorf("core: slice index is %T, want integer", args[3])
	}
	key, err := s.startFetch(ctx, path, array)
	if err != nil {
		mFetchErrors.Inc()
		return nil, err
	}
	g, field, readTime, err := s.readArrayTimed(ctx, key)
	if err != nil {
		mFetchErrors.Inc()
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	_, fspan := telemetry.StartSpan(ctx, "prefilter.slice")
	filterStart := time.Now()
	g2, vals, err := contour.ExtractSlice(g, field.Values, axis, int(index64))
	if err != nil {
		fspan.SetAttr("error", err.Error())
		fspan.End()
		mFetchErrors.Inc()
		return nil, err
	}
	filterTime := time.Since(filterStart)
	fspan.SetAttr("array", array)
	fspan.SetAttr("axis", axisName)
	fspan.SetAttr("points", len(vals))
	fspan.End()
	// Report through the same path as the other fetch handlers so slice
	// fetches update the selectivity gauge and emit the per-fetch log.
	recordFetch(path, array, &PreFilterStats{
		NumPoints:      field.Len(),
		SelectedPoints: len(vals),
		RawBytes:       int64(4 * field.Len()),
		PayloadBytes:   int64(4 * len(vals)),
		FilterTime:     filterTime,
	}, true)

	values := vtkio.FloatsToBytes(vals)
	return map[string]any{
		"dims":     []any{int64(g2.Dims.X), int64(g2.Dims.Y), int64(g2.Dims.Z)},
		"origin":   []any{g2.Origin.X, g2.Origin.Y, g2.Origin.Z},
		"spacing":  []any{g2.Spacing.X, g2.Spacing.Y, g2.Spacing.Z},
		"values":   values,
		"readns":   int64(readTime),
		"filterns": int64(filterTime),
		"rawbytes": int64(4 * field.Len()),
		"crc":      int64(vtkio.Checksum(values)),
	}, nil
}

// handleFetchRaw returns a whole array uncut — used for debugging, for
// measuring what the transfer would have cost without the pre-filter,
// and by the client's degraded fallback. It serves the decoded field:
// re-serializing float32 values is a bit-exact inverse of decoding, so
// the bytes equal the stored array's.
func (s *Server) handleFetchRaw(ctx context.Context, args []any) (any, error) {
	path, array, err := pathArrayArgs(args)
	if err != nil {
		return nil, err
	}
	key, err := s.startFetch(ctx, path, array)
	if err != nil {
		mFetchErrors.Inc()
		return nil, err
	}
	_, field, readTime, err := s.readArrayTimed(ctx, key)
	if err != nil {
		mFetchErrors.Inc()
		return nil, err
	}
	raw := vtkio.FloatsToBytes(field.Values)
	return map[string]any{
		"data":   raw,
		"readns": int64(readTime),
		"crc":    int64(vtkio.Checksum(raw)),
	}, nil
}

// handleManifest serves a brick manifest document from the store. The
// server validates it before shipping so a corrupt manifest fails here,
// with the store named in the error, instead of in every client.
func (s *Server) handleManifest(_ context.Context, args []any) (any, error) {
	path, err := argString(args, 0, "path")
	if err != nil {
		return nil, err
	}
	if err := s.quarantined(path); err != nil {
		return nil, err
	}
	data, err := fs.ReadFile(s.fsys, path)
	if err != nil {
		return nil, err
	}
	if _, err := vtkio.DecodeManifest(data); err != nil {
		return nil, fmt.Errorf("core: manifest %s: %w", path, err)
	}
	return map[string]any{
		"manifest": data,
		"crc":      int64(vtkio.Checksum(data)),
	}, nil
}
