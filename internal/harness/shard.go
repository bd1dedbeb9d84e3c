package harness

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// shardSpec is the experiment's bricking: three bricks along X with a
// one-cell ghost layer, one brick per shard.
var shardSpec = grid.BrickSpec{NX: 3, NY: 1, NZ: 1, Ghost: 1}

const shardCount = 3

// shardManifestKey is where the experiment stores the brick manifest.
func shardManifestKey(dataset string, codec compress.Kind) string {
	return fmt.Sprintf("%s/%s/manifest.json", dataset, codec)
}

// shardPrefix is the per-timestep brick directory.
func shardPrefix(dataset string, codec compress.Kind, step int) string {
	return fmt.Sprintf("%s/%s/ts%05d/", dataset, codec, step)
}

// populateBricks writes per-brick objects for every asteroid timestep
// plus one manifest (the geometry is identical across steps), and
// returns the manifest.
func (e *Env) populateBricks(dataset string, codec compress.Kind) (*vtkio.Manifest, error) {
	var man *vtkio.Manifest
	for _, step := range e.steps {
		ds := e.AsteroidDataset(step)
		if man == nil {
			m, err := vtkio.BuildManifest(ds.Grid, shardSpec, ds.FieldNames(), shardCount)
			if err != nil {
				return nil, err
			}
			data, err := vtkio.EncodeManifest(m)
			if err != nil {
				return nil, err
			}
			if err := e.local.Put(Bucket, shardManifestKey(dataset, codec), data); err != nil {
				return nil, err
			}
			man = m
		}
		bricks, err := man.GridBricks()
		if err != nil {
			return nil, err
		}
		for _, b := range bricks {
			sub, err := grid.ExtractBrick(ds, b)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := vtkio.Write(&buf, sub, vtkio.WriteOptions{Codec: codec, Checksum: true}); err != nil {
				return nil, err
			}
			key := shardPrefix(dataset, codec, step) + vtkio.BrickKey(b.ID)
			if err := e.local.Put(Bucket, key, buf.Bytes()); err != nil {
				return nil, err
			}
		}
	}
	return man, nil
}

// ShardExperiment evaluates brick-sharded scatter-gather pre-filtering
// against the single-node NDP path:
//
//  1. baseline — the stock per-isovalue contour sweep against ONE NDP
//     server over one shaped link; its reconstructed arrays are the
//     ground truth and its time the 1-node reference;
//  2. sharded — the same sweep scatter-gathered across three shard
//     servers, each behind its own shaped link (3x aggregate bandwidth,
//     as a real multi-node deployment would have); every merged array
//     must be bit-identical to the baseline reconstruction;
//  3. degraded — one shard's fetches are forced onto the raw-fetch
//     fallback (its link kills the first connection and the client may
//     not retry Fetch); the merge must still be bit-identical while the
//     degraded counters fire;
//  4. shard killed — a fresh sharded client repeats the sweep and one
//     shard dies after the first fetch; every remaining fetch must fail
//     over to the sibling shards (same store) with zero errors and
//     bit-identical payloads.
//
// The paper's pitch for NDP is moving the filter to where the data
// lives; sharding is the natural next step — more nodes scan in
// parallel and the client gathers only sparse payloads — so the
// experiment's gate is exactness under distribution plus failure, and
// — when the host has spare cores to run the shards in parallel — a
// full-scale 3-node aggregate-throughput win over 1 node.
func (e *Env) ShardExperiment(array string) (*stats.Table, error) {
	const dataset = "asteroid"
	codec := compress.None

	man, err := e.populateBricks(dataset, codec)
	if err != nil {
		return nil, err
	}

	// Every node — the 1-node baseline and each shard — is an NDP server
	// over the shared store behind its own shaped link, so the comparison
	// is 1 link vs 3 links.
	base, err := e.startNode(nil, netsim.NewLink(e.Cfg.LinkBits, e.Cfg.LinkLatency), core.WithShardName(""))
	if err != nil {
		return nil, err
	}
	defer base.Close()
	nFetches := len(e.steps) * len(e.Cfg.ContourValues)

	// Baseline sweep: reconstructed ground-truth arrays + 1-node time.
	truth := make(map[fetchID][]float32, nFetches)
	clean, err := base.dial()
	if err != nil {
		return nil, err
	}
	baseTime, _, err := e.sweep(clean, array, func(id fetchID, p *core.Payload) error {
		arr, err := p.Reconstruct()
		truth[id] = arr
		return err
	})
	clean.Close()
	if err != nil {
		return nil, fmt.Errorf("harness: baseline: %w", err)
	}

	nodes := make([]*node, shardCount)
	for i := range nodes {
		n, err := e.startNode(nil, netsim.NewLink(e.Cfg.LinkBits, e.Cfg.LinkLatency),
			core.WithShardName(fmt.Sprintf("shard%d", i)))
		if err != nil {
			return nil, err
		}
		defer n.Close()
		nodes[i] = n
	}
	addrs, dialFn := route(nodes...)
	poolOpts := PoolOverloadOptions()
	poolOpts.Reconnect.MaxAttempts = 64

	identical := func(got []float32, want []float32) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}
	// fetchMerged scatter-gathers one sweep fetch through sc and checks
	// the merge against the 1-node truth.
	fetchMerged := func(sc *core.ShardedClient, id fetchID) (*core.ShardStats, error) {
		arr, st, err := sc.FetchArray(shardPrefix(dataset, codec, id.step), array,
			[]float64{id.iso}, e.Cfg.Encoding)
		if err != nil {
			return nil, fmt.Errorf("harness: step %d iso %g: %w", id.step, id.iso, err)
		}
		if !identical(arr, truth[id]) {
			return nil, fmt.Errorf("harness: merge differs from 1 node at step %d iso %g", id.step, id.iso)
		}
		return st, nil
	}

	// Phase 2: clean sharded sweep. The manifest travels the same wire as
	// the data: fetched once from the first shard via the manifest RPC.
	first, err := nodes[0].dial()
	if err != nil {
		return nil, err
	}
	gotMan, err := first.FetchManifest(shardManifestKey(dataset, codec))
	first.Close()
	if err != nil {
		return nil, err
	}
	if len(gotMan.Entries) != len(man.Entries) {
		return nil, fmt.Errorf("harness: manifest RPC returned %d entries, wrote %d",
			len(gotMan.Entries), len(man.Entries))
	}
	sc, err := core.DialSharded(gotMan, addrs, dialFn, poolOpts)
	if err != nil {
		return nil, err
	}
	var dupPoints int
	shardStart := time.Now()
	for _, id := range e.sweepIDs() {
		st, err := fetchMerged(sc, id)
		if err != nil {
			sc.Close()
			return nil, fmt.Errorf("harness: sharded sweep: %w", err)
		}
		dupPoints += st.DupPoints
	}
	shardTime := time.Since(shardStart)
	sc.Close()
	// At full scale three nodes must beat one — but only when the host
	// can actually run the shard scans in parallel: the in-process
	// testbed multiplexes every emulated node onto the real machine, so
	// with no spare cores the aggregate win is physically unavailable
	// and the ratio is reported, not gated. Quick configurations
	// likewise move too few bytes to clear the per-brick RPC overhead.
	if e.Cfg.AsteroidN >= 64 && runtime.NumCPU() > shardCount && shardTime >= baseTime {
		return nil, fmt.Errorf("harness: sharded sweep (%v) not faster than 1 node (%v) at N=%d",
			shardTime, baseTime, e.Cfg.AsteroidN)
	}

	// Phase 3: force one shard's fetches onto the degraded fallback. Its
	// link kills the first connection after a few bytes and its client may
	// not retry Fetch, so the brick is served via Describe + FetchRaw + a
	// local pre-filter — while the other shards stay healthy.
	fallbacks := telemetry.Default().Counter("core.client.fallbacks")
	shardDegraded := telemetry.Default().Counter("core.shard.degraded")
	// Closing twice is a no-op, so this only matters when a dial or the
	// sharded client below fails before dsc owns the shard clients.
	shards := make([]*core.Client, 0, shardCount)
	defer func() {
		for _, c := range shards {
			c.Close()
		}
	}()
	for i, n := range nodes {
		if i == 1 {
			shards = append(shards, n.dialDegraded())
			continue
		}
		c, err := n.dial()
		if err != nil {
			return nil, err
		}
		shards = append(shards, c)
	}
	dsc, err := core.NewShardedClient(gotMan, shards)
	if err != nil {
		return nil, err
	}
	f0, d0 := fallbacks.Value(), shardDegraded.Value()
	step := e.steps[len(e.steps)/2]
	iso := e.Cfg.ContourValues[0]
	degStart := time.Now()
	arr, dst, err := dsc.FetchArray(
		shardPrefix(dataset, codec, step), array, []float64{iso}, e.Cfg.Encoding)
	degTime := time.Since(degStart)
	dsc.Close()
	nodes[1].link.SetFaults(nil)
	if err != nil {
		return nil, fmt.Errorf("harness: degraded-shard fetch: %w", err)
	}
	if dst.Degraded < 1 {
		return nil, fmt.Errorf("harness: no brick was served degraded")
	}
	df, dd := fallbacks.Value()-f0, shardDegraded.Value()-d0
	if df < 1 || dd < 1 {
		return nil, fmt.Errorf("harness: degraded counters did not fire (fallbacks +%d, shard.degraded +%d)", df, dd)
	}
	if !identical(arr, truth[fetchID{step, iso}]) {
		return nil, fmt.Errorf("harness: degraded-shard merge differs from baseline")
	}

	// Phase 4: kill a shard mid-sweep. A fresh pooled sharded client (its
	// breakers untouched by earlier phases) repeats the sweep; after the
	// first fetch, shard 1 dies. Its bricks must fail over to the sibling
	// shards — every shard mounts the same store — with zero errors.
	failovers := telemetry.Default().Counter("core.pool.failovers")
	breakerOpens := telemetry.Default().Counter("core.pool.breaker.open")
	ksc, err := core.DialSharded(gotMan, addrs, dialFn, poolOpts)
	if err != nil {
		return nil, err
	}
	p0, b0 := failovers.Value(), breakerOpens.Value()
	killed := false
	killStart := time.Now()
	for _, id := range e.sweepIDs() {
		if _, err := fetchMerged(ksc, id); err != nil {
			ksc.Close()
			return nil, fmt.Errorf("harness: post-kill sweep: %w", err)
		}
		if !killed {
			nodes[1].Close()
			killed = true
		}
	}
	killTime := time.Since(killStart)
	// A tiny sweep (e.g. -steps 1) leaves too few post-kill fetches for
	// the threshold-2 breaker to see consecutive failures; pad with
	// repeats of the first fetch so the dead replica is probed enough.
	for extra := nFetches - 1; extra < 4; extra++ {
		if _, err := fetchMerged(ksc, e.sweepIDs()[0]); err != nil {
			ksc.Close()
			return nil, fmt.Errorf("harness: post-kill probe %d: %w", extra, err)
		}
	}
	ksc.Close()
	kf, kb := failovers.Value()-p0, breakerOpens.Value()-b0
	if kf < 1 {
		return nil, fmt.Errorf("harness: shard death caused no pool failovers")
	}
	if kb < 1 {
		return nil, fmt.Errorf("harness: dead shard's breaker never opened")
	}

	t := stats.NewTable(
		fmt.Sprintf("Sharded scatter-gather: %d bricks (ghost %d) over %d shards (%s, raw data)",
			shardSpec.Count(), shardSpec.Ghost, shardCount, array),
		"run", "time", "fetches", "vs 1 node", "failovers", "degraded", "identical")
	t.AddRow("1 node", stats.FormatDuration(baseTime),
		fmt.Sprintf("%d", nFetches), "1.00x", "0", "0", "ground truth")
	t.AddRow("3 shards", stats.FormatDuration(shardTime),
		fmt.Sprintf("%d x%d bricks", nFetches, shardSpec.Count()),
		fmt.Sprintf("%.2fx", float64(baseTime)/float64(shardTime)),
		"0", "0", "yes")
	t.AddRow("1 shard degraded", stats.FormatDuration(degTime),
		fmt.Sprintf("1 x%d bricks", shardSpec.Count()), "",
		"0", fmt.Sprintf("%d", dst.Degraded), "yes")
	t.AddRow("1 shard killed", stats.FormatDuration(killTime),
		fmt.Sprintf("%d x%d bricks", nFetches, shardSpec.Count()),
		fmt.Sprintf("%.2fx", float64(baseTime)/float64(killTime)),
		fmt.Sprintf("%d", kf), "0", "yes")
	t.AddRow("ghost dedup", fmt.Sprintf("%d dup points over the sweep", dupPoints),
		"", "", "", "", "")
	return t, nil
}
