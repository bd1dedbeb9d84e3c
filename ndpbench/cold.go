package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/netsim"
	"vizndp/internal/s3fs"
)

// coldCodecs are the storage codecs cold-sweep cycles over.
var coldCodecs = []compress.Kind{compress.None, compress.LZ4, compress.Gzip}

// setupCold builds cold-sweep: the paper's Fig. 13 loop on one
// connection against an NDP server with no caches, so every load reads,
// decompresses and scans storage. It cycles, in a seed-shuffled order,
// over every timestep × {v02, v03} × {raw, lz4, gzip}, each load with
// its own isovalue drawn from the seed. The baseline phase runs the
// same cycle as whole-array reads through the client's shaped mount.
func setupCold(cfg config, dir string, tr *tracer) (*bench, error) {
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
	type item struct {
		codec compress.Kind
		step  int
		array string
	}
	var cycle []item
	for _, step := range ts {
		for _, codec := range coldCodecs {
			obj, err := encode(w.data[step], codec)
			if err == nil {
				err = tb.put(objectKey(codec, step), obj)
			}
			if err != nil {
				tb.close()
				return nil, err
			}
			if step == ts[len(ts)/2] {
				w.replay[codec] = obj
			}
			for _, a := range arrays {
				cycle = append(cycle, item{codec, step, a})
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })

	link := netsim.NewLink(linkBits, linkLatency)
	w.ndpLinks = []*netsim.Link{link}
	addr, err := tb.startNDP(tb.serverFS(tr), link)
	if err != nil {
		tb.close()
		return nil, err
	}
	dial := link.Dial
	if cfg.slowWire > 0 {
		dial = func(network, addr string) (net.Conn, error) {
			c, err := link.Dial(network, addr)
			return slowConn{c, cfg.slowWire}, err
		}
	}
	client, err := core.Dial(addr, dial)
	if err != nil {
		tb.close()
		return nil, err
	}
	tb.onClose(func() { client.Close() })
	if tr != nil {
		tr.single = true
	}
	mount := s3fs.New(tb.remote, bucket)

	request := func(it item, k kind) request {
		return request{kind: k, path: objectKey(it.codec, it.step), step: it.step, array: it.array}
	}
	w.ndp = func(until time.Time, tr *tracer) []*load {
		var loads []*load
		for i := 0; time.Now().Before(until) || i%len(cycle) != 0; i++ {
			req := request(cycle[i%len(cycle)], isoLoad)
			req.isos = []float64{drawIso(rng)}
			loads = append(loads, ndpLoad(client, req, tr))
		}
		return loads
	}
	w.baseline = func(until time.Time) []*load {
		var loads []*load
		for i := 0; time.Now().Before(until) || i%len(cycle) != 0; i++ {
			loads = append(loads, baselineLoad(mount, request(cycle[i%len(cycle)], baseLoad)))
		}
		return loads
	}
	w.info = map[string]any{"cache_bytes": 0, "working_set_bytes": int64(len(cycle)) * int64(4*w.data[ts[0]].Grid.NumPoints())}

	// Warm both paths' connections and code so the first timed load is
	// not a cold-start outlier.
	warm := request(cycle[0], isoLoad)
	warm.isos = []float64{0.5}
	for _, l := range []*load{ndpLoad(client, warm, nil), baselineLoad(mount, request(cycle[0], baseLoad))} {
		if l.err != nil {
			tb.close()
			return nil, fmt.Errorf("warm-up load: %w", l.err)
		}
	}
	return w, nil
}

// slowConn delays every write by delay, on top of the link's shaping.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(b []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(b)
}
