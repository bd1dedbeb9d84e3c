package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/netsim"
	"vizndp/internal/s3fs"
)

// putEvery is how often connection 0 replaces a hot object: every
// putEvery-th op is a PUT followed at once by a fetch of that object.
const putEvery = 64

// payloadCacheBytes bounds warm-explore's payload cache; payloads are
// tens to hundreds of kB, so it holds a few hundred.
const payloadCacheBytes = 16 << 20

// setupWarm builds warm-explore: interactive exploration of a hot set
// of 2 raw timesteps × 2 arrays by two connections in a closed loop,
// against a server with an array cache sized to the set, the payload
// cache and scan coalescing. 3 in 4 ops are FetchFiltered with 1-3
// isovalues on a 0.02 grid, so some repeat; 1 in 4 are FetchRange. One
// hot object is swapped between two timesteps' bytes every putEvery-th
// op on connection 0, which then fetches it and must see the new data.
func setupWarm(cfg config, dir string, tr *tracer) (*bench, error) {
	tb, err := newTestbed(dir)
	if err != nil {
		return nil, err
	}
	w := &bench{tb: tb, tr: tr, replay: map[compress.Kind][]byte{}, cached: true, callers: 2}
	ts := steps()
	if w.data, err = generate(cfg.N, ts); err != nil {
		tb.close()
		return nil, err
	}
	// hot[0] holds the first or the last timestep's bytes, as versions
	// says; hot[1] holds the middle timestep.
	hot := [2]string{"asteroid/raw/hot0.vnd", "asteroid/raw/hot1.vnd"}
	swapSteps := [2]int{ts[0], ts[len(ts)-1]}
	var versions [2][]byte
	for i, step := range swapSteps {
		if versions[i], err = encode(w.data[step], compress.None); err != nil {
			tb.close()
			return nil, err
		}
	}
	mid, err := encode(w.data[ts[1]], compress.None)
	if err == nil {
		err = tb.put(hot[0], versions[0])
	}
	if err == nil {
		err = tb.put(hot[1], mid)
	}
	if err != nil {
		tb.close()
		return nil, err
	}
	w.replay[compress.None] = mid

	arrayBytes := int64(4 * w.data[ts[0]].Grid.NumPoints())
	workingSet := int64(len(hot)*len(arrays)) * arrayBytes
	// A quarter of headroom holds the set but not a swapped-in version
	// beside the old one, so swaps evict.
	cacheBytes := workingSet + workingSet/4
	link := netsim.NewLink(linkBits, linkLatency)
	w.ndpLinks = []*netsim.Link{link}
	addr, err := tb.startNDP(tb.serverFS(tr), link, core.WithCacheBytes(cacheBytes),
		core.WithPayloadCacheBytes(payloadCacheBytes), core.WithCoalesce(0))
	if err != nil {
		tb.close()
		return nil, err
	}
	var clients [2]*core.Client
	for i := range clients {
		if clients[i], err = core.Dial(addr, link.Dial); err != nil {
			tb.close()
			return nil, err
		}
		c := clients[i]
		tb.onClose(func() { c.Close() })
	}

	// mu keeps reads of hot[0] off it while connection 0 replaces it:
	// s3fs reads are ranged GETs, so a read spanning a PUT would mix two
	// versions' bytes. cur is the version hot[0] holds.
	var mu sync.RWMutex
	cur := 0
	stepOf := func(obj int) int {
		if obj == 0 {
			return swapSteps[cur]
		}
		return ts[1]
	}
	rngs := [2]*rand.Rand{rand.New(rand.NewSource(cfg.Seed)), rand.New(rand.NewSource(cfg.Seed + 1))}
	var ops [2]int

	// fetch runs one exploration op on hot[obj].
	fetch := func(conn, obj int, afterPut bool, tr *tracer) *load {
		if obj == 0 {
			mu.RLock()
			defer mu.RUnlock()
		}
		req := exploreOp(rngs[conn], hot[obj], stepOf(obj))
		req.afterPut = afterPut
		return ndpLoad(clients[conn], req, tr)
	}
	swap := func() error {
		mu.Lock()
		defer mu.Unlock()
		if err := tb.local.Put(bucket, hot[0], versions[1-cur]); err != nil {
			return fmt.Errorf("swapping %s: %w", hot[0], err)
		}
		cur = 1 - cur
		return nil
	}
	caller := func(conn int, until time.Time, tr *tracer) []*load {
		var loads []*load
		for time.Now().Before(until) {
			ops[conn]++
			if conn == 0 && ops[0]%putEvery == 0 {
				if err := swap(); err != nil {
					loads = append(loads, &load{err: err})
					continue
				}
				loads = append(loads, fetch(conn, 0, true, tr))
				continue
			}
			loads = append(loads, fetch(conn, rngs[conn].Intn(len(hot)), false, tr))
		}
		return loads
	}
	w.ndp = func(until time.Time, tr *tracer) []*load {
		return together(func(conn int) []*load { return caller(conn, until, tr) })
	}
	baseRngs := [2]*rand.Rand{rand.New(rand.NewSource(cfg.Seed + 2)), rand.New(rand.NewSource(cfg.Seed + 3))}
	mount := s3fs.New(tb.remote, bucket)
	w.baseline = func(until time.Time) []*load {
		return together(func(conn int) []*load {
			var loads []*load
			for time.Now().Before(until) {
				obj := baseRngs[conn].Intn(len(hot))
				req := request{kind: baseLoad, path: hot[obj], step: stepOf(obj), array: arrays[baseRngs[conn].Intn(len(arrays))]}
				loads = append(loads, baselineLoad(mount, req))
			}
			return loads
		})
	}
	w.info = map[string]any{"cache_bytes": cacheBytes, "payload_cache_bytes": payloadCacheBytes,
		"working_set_bytes": workingSet, "put_every": putEvery, "callers": len(clients)}

	// Fill the caches before timing: every hot array once per connection.
	for conn, c := range clients {
		for obj := range hot {
			for _, a := range arrays {
				req := request{kind: isoLoad, path: hot[obj], step: stepOf(obj), array: a, isos: []float64{0.5}}
				if l := ndpLoad(c, req, nil); l.err != nil {
					tb.close()
					return nil, fmt.Errorf("warm-up load on connection %d: %w", conn, l.err)
				}
			}
		}
	}
	return w, nil
}

// exploreOp draws one exploration op on path: 3 in 4 are contour
// fetches with 1-3 distinct isovalues on a 0.02 grid in [0.1, 0.9],
// 1 in 4 are range fetches [lo, lo + 0.02..0.1].
func exploreOp(rng *rand.Rand, path string, step int) request {
	req := request{kind: isoLoad, path: path, step: step, array: arrays[rng.Intn(len(arrays))]}
	if rng.Intn(4) == 3 {
		req.kind = rangeLoad
		req.lo = float64(5+rng.Intn(36)) / 50
		req.hi = req.lo + float64(1+rng.Intn(5))/50
		return req
	}
	seen := map[int]bool{}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		v := 5 + rng.Intn(41)
		if !seen[v] {
			seen[v] = true
			req.isos = append(req.isos, float64(v)/50)
		}
	}
	sort.Float64s(req.isos)
	return req
}

// together runs two callers at once and returns all their loads.
func together(caller func(conn int) []*load) []*load {
	var (
		wg  sync.WaitGroup
		out [2][]*load
	)
	for conn := range out {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			out[conn] = caller(conn)
		}(conn)
	}
	wg.Wait()
	return append(out[0], out[1]...)
}
