package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"vizndp/internal/bitset"
	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/stats"
	"vizndp/internal/vtkio"
)

// The traced parts of the NDP loads must sum to the client-observed
// loads within reconcileTolerance of the load plus reconcileSlack per
// load. The parts measured apart from the program leave rpc and msgpack
// framing unexplained, a roughly fixed cost per request: about 2.5 ms
// (7%) of a cold-sweep load at N=128 on a 2-core host, and 0.3 ms (24%)
// at N=24.
const (
	reconcileTolerance = 0.10
	reconcileSlack     = 500 * time.Microsecond
)

// baselineShare is the share of an untraced run's seconds given to the
// baseline slices; the NDP slices get the rest.
const baselineShare = 0.4

// replayLoads bounds how many traced loads the pre-filter replay redoes.
const replayLoads = 32

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// slices is how many turns each phase of a run is split into. Phases
// take turns slice by slice, and each timing is the median over the
// slices, so a contention burst on a shared host skews one slice, not
// the run.
const slices = 4

// sliceMedian is the median over slices of f applied to each slice.
func sliceMedian(parts [][]*load, f func([]*load) float64) float64 {
	vals := make([]float64, len(parts))
	for i, p := range parts {
		vals[i] = f(p)
	}
	return stats.Percentile(vals, 0.5)
}

func p50(loads []*load) float64 { return stats.Percentile(latencies(loads), 0.5) }

func p90(loads []*load) float64 { return stats.Percentile(latencies(loads), 0.9) }

// untraced measures the end-to-end metrics. NDP and baseline slices
// alternate, then the correctness gate checks every answer.
func untraced(cfg config, w *bench, total time.Duration, setupTimes []float64, info map[string]any) (*result, error) {
	baseDur := time.Duration(float64(total)*baselineShare) / slices
	ndpDur := total/slices - baseDur
	var (
		parts       [][]*load
		loads, base []*load
		u           usage
		rates       []float64
	)
	for i := 0; i < slices; i++ {
		ph := startPhase(w.ndpLinks)
		part := w.ndp(time.Now().Add(ndpDur), nil)
		pu := ph.end()
		// Hashing the answers is the benchmark's work, not the program's.
		h := hashTime(part)
		pu.cpu -= h
		pu.wall -= h / time.Duration(w.callers)
		u.add(pu)
		parts = append(parts, part)
		loads = append(loads, part...)
		rates = append(rates, float64(len(latencies(part)))/pu.wall.Seconds())
		base = append(base, w.baseline(time.Now().Add(baseDur))...)
	}

	all := append(append([]*load(nil), loads...), base...)
	bad, verr := verify(w.data, all, cfg.corruptTruth)
	n := math.Max(1, float64(len(latencies(loads))))
	ndp50, base50 := sliceMedian(parts, p50), p50(base)
	res := &result{
		Correct:   bad == 0,
		Attempted: len(all),
		Failed:    failures(all),
		Metrics: map[string]metric{
			"load_ms_p50":          {ndp50, "ms"},
			"load_ms_p90":          {sliceMedian(parts, p90), "ms"},
			"loads_per_s":          {stats.Percentile(rates, 0.5), "1/s"},
			"cpu_ms_per_load":      {ms(u.cpu) / n, "ms"},
			"alloc_mb_per_load":    {u.alloc / n / 1e6, "MB"},
			"heap_peak_mb":         {float64(u.heapPeak) / 1e6, "MB"},
			"wire_bytes_per_load":  {float64(u.wire) / n, "B"},
			"baseline_load_ms_p50": {base50, "ms"},
			"baseline_load_ms_p90": {p90(base), "ms"},
			"setup_s":              {stats.Percentile(setupTimes, 0.5), "s"},
		},
	}
	note(info, loads, all, bad)
	info["baseline_samples"] = len(latencies(base))
	if base50 > 0 {
		info["ndp_over_baseline_p50"] = ndp50 / base50
	}
	if verr != nil {
		return res, fmt.Errorf("correctness: %d loads wrong: %w", bad, verr)
	}
	return res, clean(u, all)
}

// traced measures the per-layer split. Untraced and traced slices
// alternate; the traced median load over the untraced one is the
// tracing overhead. Only the NDP path is traced.
func traced(cfg config, w *bench, total time.Duration, info map[string]any) (*result, error) {
	tr := w.tr
	half := total / (2 * slices)
	var (
		plainParts, tracedParts [][]*load
		plain, loads            []*load
		u                       usage
	)
	for i := 0; i < slices; i++ {
		part := w.ndp(time.Now().Add(half), nil)
		plainParts = append(plainParts, part)
		plain = append(plain, part...)
		tr.on.Store(true)
		ph := startPhase(w.ndpLinks)
		part = w.ndp(time.Now().Add(half), tr)
		u.add(ph.end())
		tr.on.Store(false)
		tracedParts = append(tracedParts, part)
		loads = append(loads, part...)
	}

	all := append(append([]*load(nil), plain...), loads...)
	bad, verr := verify(w.data, all, cfg.corruptTruth)
	ok := succeeded(loads)
	sample, err := w.replayPrefilter(ok)
	if err != nil {
		return nil, err
	}
	m, err := w.layers(ok, sample, u)
	if err != nil {
		return nil, err
	}
	m["trace.overhead_share"] = metric{sliceMedian(tracedParts, p50)/math.Max(1e-9, sliceMedian(plainParts, p50)) - 1, "ratio"}
	unexplained, cover, rerr := w.reconcile(ok, sample, m, u)
	m["reconcile.unexplained_share"] = metric{unexplained, "ratio"}
	res := &result{Correct: bad == 0, Attempted: len(all), Failed: failures(all), Metrics: m}
	note(info, loads, all, bad)
	info["reconcile_tolerance"] = reconcileTolerance
	info["reconcile_slack_per_load"] = reconcileSlack.String()
	info["reconcile_filter_cover"] = cover
	tracePath := filepath.Join(cfg.WorkDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.Workload, cfg.Seed))
	spans, err := tr.write(tracePath)
	if err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	info["trace_file"] = tracePath
	info["spans"] = spans
	if verr != nil {
		return res, fmt.Errorf("correctness: %d loads wrong: %w", bad, verr)
	}
	if rerr != nil {
		return res, rerr
	}
	return res, clean(u, all)
}

// note records a run's sample count and what its gates saw.
func note(info map[string]any, measured, all []*load, bad int) {
	puts := 0
	for _, l := range all {
		if l.req.afterPut && l.err == nil {
			puts++
		}
	}
	info["samples"] = len(latencies(measured))
	info["mismatches"] = bad
	info["failed_share"] = float64(failures(all)) / float64(max(1, len(all)))
	info["after_put_loads"] = puts
}

// clean fails a run in which a load failed, or a fetch failed over to
// another replica or degraded to a raw transfer: nothing in the testbed
// fails, so any of these means the serving path misbehaved.
func clean(u usage, all []*load) error {
	for _, l := range all {
		if l.err != nil {
			return fmt.Errorf("clean run: %d of %d loads failed, the first with: %w", failures(all), len(all), l.err)
		}
	}
	for _, name := range []string{"core.pool.failovers", "core.shard.degraded", "core.client.fallbacks"} {
		if n := u.counters[name]; n != 0 {
			return fmt.Errorf("clean run: %s counted %d", name, n)
		}
	}
	return nil
}

// hashTime is the time the loads spent hashing their answers.
func hashTime(loads []*load) time.Duration {
	var d time.Duration
	for _, l := range loads {
		d += l.hashed
	}
	return d
}

func succeeded(loads []*load) []*load {
	var ok []*load
	for _, l := range loads {
		if l.err == nil {
			ok = append(ok, l)
		}
	}
	return ok
}

// reconcile checks the traced parts of the NDP loads against
// measurements taken apart from the program's own FetchStats, and
// returns the share of the client-observed load the parts leave
// unexplained and the filter cover (see below).
//
// With one caller and no caches (cold-sweep) every part of a sampled
// load is measured independently: its s3fs spans, replays of its vtkio
// read, selection, encode and client decode, its timed reconstruct, and
// the mean link delay netsim slept. They must sum to the load within
// the tolerance; what is left is rpc, msgpack and link time too short
// for netsim to sleep.
//
// With two callers (warm-explore) or overlapping bricks (sharded-sweep)
// the loads share the CPUs, so uncontended replays cannot sum to a wall
// time. There the parts are FetchStats read + filter + transfer (on
// sharded-sweep, the scatter-gather wall time) plus the decode replay
// and the reconstruct. FetchStats transfer is the fetch time less read
// and filter, so this sum tests only the decode replay and the time
// spent outside the fetch call.
//
// Without caches the s3fs time must also sit inside the server's read
// time. The filter cover, the server's reported filter time of the
// sampled loads that scanned over their replayed select+encode, is
// returned for the run record but not gated: replays on tiny grids run
// up to a quarter slower than the server's scan.
func (w *bench) reconcile(ok []*load, sample []replay, m map[string]metric, u usage) (float64, float64, error) {
	var reported, replayed time.Duration
	for _, r := range sample {
		if ft := r.l.filterTime(); ft > 0 {
			reported += ft
			replayed += r.sel + r.enc
		}
	}
	cover := float64(reported) / math.Max(1, float64(replayed))

	var loadSum, parts, slack time.Duration
	if w.independent() {
		s3 := w.tr.s3fsByLoad()
		delay := time.Duration(u.counters["netsim.delay.nanos"] / int64(max(1, len(ok))))
		for _, r := range sample {
			loadSum += r.l.dur
			parts += s3[r.l.id] + r.read + r.sel + r.enc + r.decode + r.l.recon + delay
			slack += reconcileSlack
		}
	} else {
		decode := time.Duration(m["core.decode_payload_ms_per_load"].Value * float64(time.Millisecond))
		for _, l := range ok {
			loadSum += l.dur
			if l.req.kind == shardLoad {
				parts += l.shard.TotalTime
				continue
			}
			parts += l.fetch.ReadTime + l.fetch.FilterTime + l.fetch.TransferTime + decode + l.recon
		}
		slack = reconcileSlack * time.Duration(len(ok))
	}
	unexplained := float64(loadSum-parts) / math.Max(1, float64(loadSum))
	limit := reconcileTolerance + float64(slack)/math.Max(1, float64(loadSum))

	switch {
	case math.Abs(unexplained) > limit:
		return unexplained, cover, fmt.Errorf("reconcile: traced parts leave %.1f%% of the load unexplained (tolerance %.0f%% + %v per load = %.1f%%)",
			100*unexplained, 100*reconcileTolerance, reconcileSlack, 100*limit)
	case !w.cached && m["vtkio.read_self_ms_per_load"].Value < 0:
		return unexplained, cover, fmt.Errorf("reconcile: s3fs time %.3f ms exceeds the server read time %.3f ms",
			m["s3fs.readat_ms_per_load"].Value+m["s3fs.stat_ms_per_load"].Value, m["core.read_ms_per_load"].Value)
	}
	return unexplained, cover, nil
}

// independent reports whether every part of a load can be measured
// apart from FetchStats: one caller, no caches, one server.
func (w *bench) independent() bool { return w.callers == 1 && !w.cached && w.bricks == nil }

// filterTime is the filter time the server reported for the load,
// summed over bricks on a sharded load.
func (l *load) filterTime() time.Duration {
	if l.req.kind == shardLoad {
		return l.shard.FilterTime
	}
	return l.fetch.FilterTime
}

// layers turns the traced phase's successful loads into the per-layer
// metrics, using the replayed sample for the parts that cannot be timed
// from outside the server.
func (w *bench) layers(ok []*load, sample []replay, u usage) (map[string]metric, error) {
	tr := w.tr
	n := math.Max(1, float64(len(ok)))
	var (
		read, filter, transfer, recon, fetchTotal time.Duration
		selected, payload, bricks, dups           float64
	)
	for _, l := range ok {
		recon += l.recon
		if l.req.kind == shardLoad {
			st := l.shard
			read += st.ReadTime
			filter += st.FilterTime
			transfer += st.TransferTime
			fetchTotal += st.TotalTime
			selected += float64(st.SelectedPoints)
			payload += float64(st.PayloadBytes)
			bricks += float64(st.Bricks)
			dups += float64(st.DupPoints)
			continue
		}
		st := l.fetch
		read += st.ReadTime
		filter += st.FilterTime
		transfer += st.TransferTime
		selected += float64(st.SelectedPoints)
		payload += float64(st.PayloadBytes)
	}
	// Per-load means of the replayed steps.
	var sel, enc, decode, replayRecon time.Duration
	var encAlloc float64
	for _, r := range sample {
		sel += r.sel
		enc += r.enc
		decode += r.decode
		replayRecon += r.recon
		encAlloc += r.encAlloc
	}
	k := math.Max(1, float64(len(sample)))
	mean := func(d time.Duration) float64 { return ms(d) / k }
	if w.bricks != nil {
		// FetchArray merges inside the call, so the client-side expansion
		// is the replayed per-brick reconstruct.
		recon = time.Duration(float64(replayRecon) / k * n)
	}
	s3fsTime := time.Duration(tr.readNS.Load() + tr.statNS.Load())
	delay := float64(u.counters["netsim.delay.nanos"])
	c := u.counters
	perLoad := func(d time.Duration) float64 { return ms(d) / n }
	brickWork := read + filter + transfer

	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	lookups := c["arraycache.hits"] + c["arraycache.misses"] + c["arraycache.coalesced"]
	m := map[string]metric{
		"s3fs.readat_ms_per_load":           {ms(time.Duration(tr.readNS.Load())) / n, "ms"},
		"s3fs.readat_calls_per_load":        {float64(tr.reads.Load()) / n, "count"},
		"s3fs.bytes_per_load":               {float64(tr.readBytes.Load()) / n, "B"},
		"s3fs.stat_calls_per_load":          {float64(tr.stats.Load()) / n, "count"},
		"s3fs.stat_ms_per_load":             {ms(time.Duration(tr.statNS.Load())) / n, "ms"},
		"s3fs.read_amplification":           {ratio(c["objstore.bytes.out"], tr.readBytes.Load()), "ratio"},
		"vtkio.read_self_ms_per_load":       {perLoad(read - s3fsTime), "ms"},
		"arraycache.hit_ratio":              {ratio(c["arraycache.hits"], lookups), "ratio"},
		"arraycache.evictions":              {float64(c["arraycache.evictions"]), "count"},
		"core.payloadcache.hit_ratio":       {ratio(c["core.payloadcache.hits"], c["core.payloadcache.hits"]+c["core.payloadcache.misses"]), "ratio"},
		"core.scans_per_request":            {ratio(c["core.scan.passes"], c["core.scan.requests"]), "ratio"},
		"core.coalesced_share":              {ratio(c["core.scan.coalesced"], c["core.scan.requests"]), "ratio"},
		"core.read_ms_per_load":             {perLoad(read), "ms"},
		"core.filter_ms_per_load":           {perLoad(filter), "ms"},
		"contour.select_ms_per_load":        {mean(sel), "ms"},
		"core.encode_ms_per_load":           {mean(enc), "ms"},
		"core.encode_alloc_kb_per_load":     {encAlloc / 1e3 / k, "kB"},
		"core.selected_points_per_load":     {selected / n, "count"},
		"core.payload_bytes_per_load":       {payload / n, "B"},
		"core.transfer_ms_per_load":         {perLoad(transfer), "ms"},
		"netsim.delay_ms_per_load":          {delay / 1e6 / n, "ms"},
		"rpc.software_transfer_ms_per_load": {(float64(transfer) - delay) / 1e6 / n, "ms"},
		"rpc.client.bytes_rcvd_per_load":    {float64(c["rpc.client.bytes.rcvd"]) / n, "B"},
		"core.reconstruct_ms_per_load":      {perLoad(recon), "ms"},
		"core.decode_payload_ms_per_load":   {mean(decode), "ms"},
		"shard.bricks_per_fetch":            {bricks / n, "count"},
		"shard.brick_work_ms_per_fetch":     {0, "ms"},
		"shard.overlap":                     {0, "ratio"},
		"shard.ghost_dups_per_fetch":        {dups / n, "count"},
		"shard.failovers":                   {float64(c["core.pool.failovers"]), "count"},
		"shard.degraded":                    {float64(c["core.shard.degraded"]), "count"},
		"runtime.gc_cpu_share":              {u.gcCPU / math.Max(1e-9, u.busyCPU), "ratio"},
		"runtime.gc_cycles_per_load":        {u.gcCycles / n, "count"},
		"telemetry.events_per_load":         {float64(u.events) / n, "count"},
		"traced_loads":                      {float64(len(ok)), "count"},
	}
	if w.bricks != nil {
		m["shard.brick_work_ms_per_fetch"] = metric{perLoad(brickWork), "ms"}
		m["shard.overlap"] = metric{float64(brickWork) / math.Max(1, float64(fetchTotal)), "ratio"}
	}
	for _, codec := range []compress.Kind{compress.None, compress.LZ4, compress.Gzip} {
		v := 0.0
		if obj := w.replay[codec]; obj != nil {
			var err error
			if v, err = replayRead(obj); err != nil {
				return nil, err
			}
		}
		m["vtkio.read_array_ms."+codec.String()] = metric{v, "ms"}
	}
	return m, nil
}

// replay is one sampled load's steps redone on the same in-memory
// inputs, summed over bricks on a sharded load.
type replay struct {
	l                       *load
	sel, enc, decode, recon time.Duration
	encAlloc                float64 // bytes the encode allocated
	// read is the load's vtkio OpenReader + ReadArray from memory; it is
	// replayed only when every part of a load is (see independent).
	read time.Duration
}

// replayPrefilter redoes the selection, encode, wire CRC + client decode
// and reconstruct of up to replayLoads traced loads, evenly spaced, on
// the same in-memory inputs. A sharded load replays every brick.
func (w *bench) replayPrefilter(loads []*load) ([]replay, error) {
	if len(loads) == 0 {
		return nil, nil
	}
	stride := (len(loads) + replayLoads - 1) / replayLoads
	type input struct {
		g    *grid.Uniform
		vals []float32
	}
	bricksOf := map[string][]input{}
	objects := map[string][]byte{}
	var out []replay
	var before, after runtime.MemStats
	for i := 0; i < len(loads); i += stride {
		l := loads[i]
		r := replay{l: l}
		ds := w.data[l.req.step]
		f := ds.Field(l.req.array)
		ins := []input{{ds.Grid, f.Values}}
		if w.bricks != nil {
			key := fmt.Sprintf("%d/%s", l.req.step, l.req.array)
			if bricksOf[key] == nil {
				for _, b := range w.bricks {
					bf, err := grid.ExtractBrickField(ds.Grid, f, b)
					if err != nil {
						return nil, err
					}
					bricksOf[key] = append(bricksOf[key], input{b.SubGrid(ds.Grid), bf.Values})
				}
			}
			ins = bricksOf[key]
		}
		for _, in := range ins {
			t0 := time.Now()
			mask, err := contourMask(in.g, in.vals, l.req)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			runtime.ReadMemStats(&before)
			t1b := time.Now()
			p, err := core.EncodeSelection(mask, in.vals, core.EncAuto)
			t2 := time.Now()
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, err
			}
			t2b := time.Now()
			_ = vtkio.Checksum(p.Data)
			if _, err := core.DecodePayload(p.Data); err != nil {
				return nil, err
			}
			t3 := time.Now()
			if _, err := p.Reconstruct(); err != nil {
				return nil, err
			}
			t4 := time.Now()
			r.sel += t1.Sub(t0)
			r.enc += t2.Sub(t1b)
			r.encAlloc += float64(after.TotalAlloc - before.TotalAlloc)
			r.decode += t3.Sub(t2b)
			r.recon += t4.Sub(t3)
		}
		if w.independent() {
			obj := objects[l.req.path]
			if obj == nil {
				var err error
				if obj, err = w.tb.local.Get(bucket, l.req.path); err != nil {
					return nil, err
				}
				objects[l.req.path] = obj
			}
			start := time.Now()
			rd, err := vtkio.OpenReader(bytes.NewReader(obj))
			if err == nil {
				_, err = rd.ReadArray(l.req.array)
			}
			if err != nil {
				return nil, err
			}
			r.read = time.Since(start)
		}
		out = append(out, r)
	}
	return out, nil
}

// contourMask is the selection the load's server-side filter makes.
func contourMask(g *grid.Uniform, vals []float32, req request) (*bitset.Bitset, error) {
	if req.kind == rangeLoad {
		return contour.SelectRangeCorners(g, vals, req.lo, req.hi)
	}
	return contour.SelectCellCorners(g, vals, req.isos)
}

// replayRead times vtkio.OpenReader plus ReadArray of each array of one
// stored object, from memory: parse, page CRC, decompress and
// bytes-to-float with no storage below. Returns the median ms per array.
func replayRead(obj []byte) (float64, error) {
	const reps = 3
	var times []float64
	for i := 0; i < reps; i++ {
		for _, a := range arrays {
			start := time.Now()
			r, err := vtkio.OpenReader(bytes.NewReader(obj))
			if err != nil {
				return 0, err
			}
			if _, err := r.ReadArray(a); err != nil {
				return 0, err
			}
			times = append(times, ms(time.Since(start)))
		}
	}
	return stats.Percentile(times, 0.5), nil
}
