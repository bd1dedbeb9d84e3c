package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/s3fs"
	"vizndp/internal/vtkio"
)

// shardSpec is sharded-sweep's bricking: 2×2×1 bricks with one ghost
// cell layer, over two shard servers.
var shardSpec = grid.BrickSpec{NX: 2, NY: 2, NZ: 1, Ghost: 1}

const shardCount = 2

// brickDir is one timestep's brick directory.
func brickDir(step int) string { return fmt.Sprintf("asteroid/bricks/ts%05d/", step) }

// setupSharded builds sharded-sweep: DialSharded over two shard servers,
// each behind its own shaped link, with lz4 bricks, SetParallelism(2)
// and no caches. One caller loops over a seed-shuffled timestep × array
// cycle, each load with its own isovalue drawn from the seed. The
// baseline phase reads the same arrays whole from unsharded lz4 objects
// through the client's shaped mount.
func setupSharded(cfg config, dir string, tr *tracer) (*bench, error) {
	tb, err := newTestbed(dir)
	if err != nil {
		return nil, err
	}
	w := &bench{tb: tb, tr: tr, replay: map[compress.Kind][]byte{}, callers: 1}
	ts := steps()
	if w.data, err = generate(cfg.N, ts); err != nil {
		tb.close()
		return nil, err
	}
	fail := func(err error) (*bench, error) {
		tb.close()
		return nil, err
	}
	man, err := vtkio.BuildManifest(w.data[ts[0]].Grid, shardSpec, arrays, shardCount)
	if err != nil {
		return fail(err)
	}
	if w.bricks, err = man.GridBricks(); err != nil {
		return fail(err)
	}
	type item struct {
		step  int
		array string
	}
	var cycle []item
	for _, step := range ts {
		ds := w.data[step]
		for _, b := range w.bricks {
			sub, err := grid.ExtractBrick(ds, b)
			if err != nil {
				return fail(err)
			}
			obj, err := encode(sub, compress.LZ4)
			if err == nil {
				err = tb.put(brickDir(step)+vtkio.BrickKey(b.ID), obj)
			}
			if err != nil {
				return fail(err)
			}
		}
		whole, err := encode(ds, compress.LZ4)
		if err == nil {
			err = tb.put(objectKey(compress.LZ4, step), whole)
		}
		if err != nil {
			return fail(err)
		}
		if step == ts[len(ts)/2] {
			w.replay[compress.LZ4] = whole
		}
		for _, a := range arrays {
			cycle = append(cycle, item{step, a})
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })

	links := map[string]*netsim.Link{}
	addrs := make([]string, shardCount)
	for i := range addrs {
		link := netsim.NewLink(linkBits, linkLatency)
		if addrs[i], err = tb.startNDP(tb.serverFS(tr), link, core.WithShardName(fmt.Sprintf("shard%d", i))); err != nil {
			return fail(err)
		}
		links[addrs[i]] = link
		w.ndpLinks = append(w.ndpLinks, link)
	}
	dial := func(network, addr string) (net.Conn, error) {
		if l, ok := links[addr]; ok {
			return l.Dial(network, addr)
		}
		return nil, fmt.Errorf("no shard at %s", addr)
	}
	sc, err := core.DialSharded(man, addrs, dial, core.PoolOptions{})
	if err != nil {
		return fail(err)
	}
	tb.onClose(func() { sc.Close() })
	sc.SetParallelism(shardCount)
	if tr != nil {
		tr.single = true
	}
	mount := s3fs.New(tb.remote, bucket)

	w.ndp = func(until time.Time, tr *tracer) []*load {
		var loads []*load
		for i := 0; time.Now().Before(until) || i%len(cycle) != 0; i++ {
			it := cycle[i%len(cycle)]
			req := request{kind: shardLoad, path: brickDir(it.step), step: it.step, array: it.array,
				isos: []float64{drawIso(rng)}}
			loads = append(loads, shardedLoad(sc, req, tr))
		}
		return loads
	}
	w.baseline = func(until time.Time) []*load {
		var loads []*load
		for i := 0; time.Now().Before(until) || i%len(cycle) != 0; i++ {
			it := cycle[i%len(cycle)]
			req := request{kind: baseLoad, path: objectKey(compress.LZ4, it.step), step: it.step, array: it.array}
			loads = append(loads, baselineLoad(mount, req))
		}
		return loads
	}
	w.info = map[string]any{"cache_bytes": 0, "shards": shardCount, "bricks": len(w.bricks),
		"working_set_bytes": int64(len(cycle)) * int64(4*w.data[ts[0]].Grid.NumPoints())}

	warm := request{kind: shardLoad, path: brickDir(ts[0]), step: ts[0], array: arrays[0], isos: []float64{0.5}}
	if l := shardedLoad(sc, warm, nil); l.err != nil {
		return fail(fmt.Errorf("warm-up load: %w", l.err))
	}
	if l := baselineLoad(mount, request{kind: baseLoad, path: objectKey(compress.LZ4, ts[0]), step: ts[0], array: arrays[0]}); l.err != nil {
		return fail(fmt.Errorf("warm-up baseline load: %w", l.err))
	}
	return w, nil
}

// shardedLoad runs one scatter-gathered load: the merged field arrives
// already reconstructed.
func shardedLoad(sc *core.ShardedClient, req request, tr *tracer) *load {
	l := &load{req: req}
	id := tr.beginLoad()
	start := time.Now()
	vals, st, err := sc.FetchArray(req.path, req.array, req.isos, core.EncAuto)
	end := time.Now()
	l.dur, l.err = end.Sub(start), err
	tr.endShardLoad(id, start, end)
	l.id = id
	if err == nil {
		l.shard = *st
		l.digest = digestFloats(vals)
		l.hashed = time.Since(end)
	}
	return l
}
