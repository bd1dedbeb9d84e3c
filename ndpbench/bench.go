package main

import (
	"fmt"
	"hash/maphash"
	"io/fs"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/s3fs"
	"vizndp/internal/vtkio"
)

// kind is what one load does.
type kind int

const (
	// isoLoad is FetchFiltered plus Payload.Reconstruct.
	isoLoad kind = iota
	// rangeLoad is FetchRange plus Payload.Reconstruct.
	rangeLoad
	// shardLoad is a scatter-gathered ShardedClient.FetchArray.
	shardLoad
	// baseLoad is vtkio.OpenReader plus ReadArray through the shaped
	// client-side s3fs mount: the paper's baseline.
	baseLoad
)

// request is one load as issued.
type request struct {
	kind  kind
	path  string // object key, or brick directory for shardLoad
	step  int    // timestep whose bytes path holds when the load runs
	array string
	isos  []float64
	lo    float64
	hi    float64
	// afterPut marks the fetch issued right after its own connection
	// replaced the object.
	afterPut bool
}

// load is one completed load.
type load struct {
	req   request
	id    uint64        // the load's trace span, 0 when untraced
	dur   time.Duration // request to field in client memory
	recon time.Duration // the Reconstruct part of dur
	fetch core.FetchStats
	shard core.ShardStats
	// digest is a hash of the payload bytes, or of the field for shard
	// and baseline loads; hashing took hashed, after dur ended.
	digest uint64
	hashed time.Duration
	err    error
}

// bench is one workload's running testbed.
type bench struct {
	tb   *testbed
	tr   *tracer // nil on untraced runs
	data map[int]*grid.Dataset
	// replay holds one stored object per codec, for the vtkio replays.
	replay   map[compress.Kind][]byte
	ndpLinks []*netsim.Link
	// bricks is the sharded workload's brick layout; nil otherwise.
	bricks []grid.Brick
	// cached marks servers with caches, whose version probes read
	// storage outside the timed server read.
	cached bool
	// callers is how many callers drive the NDP phase at once.
	callers  int
	info     map[string]any
	ndp      func(until time.Time, tr *tracer) []*load
	baseline func(until time.Time) []*load
}

func (w *bench) close() { w.tb.close() }

// describe records what the workload stored and served.
func (w *bench) describe() map[string]any {
	info := map[string]any{
		"grid_n":        w.data[steps()[0]].Grid.Dims.X,
		"timesteps":     len(w.data),
		"objects":       w.tb.objects,
		"object_bytes":  w.tb.bytes,
		"link_bits":     linkBits,
		"link_latency":  linkLatency.String(),
		"raw_array_mib": float64(4*w.data[steps()[0]].Grid.NumPoints()) / (1 << 20),
	}
	for k, v := range w.info {
		info[k] = v
	}
	return info
}

// workloads maps each workload name to its setup.
var workloads = map[string]func(cfg config, dir string, tr *tracer) (*bench, error){
	"cold-sweep":    setupCold,
	"warm-explore":  setupWarm,
	"sharded-sweep": setupSharded,
}

// drawIso draws one isovalue in [0.1, 0.9] on a 0.01 grid.
func drawIso(rng *rand.Rand) float64 { return float64(10+rng.Intn(81)) / 100 }

// ndpLoad runs one single-server NDP load on c.
func ndpLoad(c *core.Client, req request, tr *tracer) *load {
	l := &load{req: req}
	id := tr.beginLoad()
	start := time.Now()
	var (
		p   *core.Payload
		st  *core.FetchStats
		err error
	)
	if req.kind == rangeLoad {
		p, st, err = c.FetchRange(req.path, req.array, req.lo, req.hi, core.EncAuto)
	} else {
		p, st, err = c.FetchFiltered(req.path, req.array, req.isos, core.EncAuto)
	}
	fetched := time.Now()
	if err == nil {
		_, err = p.Reconstruct()
	}
	end := time.Now()
	l.dur, l.recon, l.err = end.Sub(start), end.Sub(fetched), err
	tr.endLoad(id, start, fetched, end)
	l.id = id
	if err == nil {
		l.fetch = *st
		l.digest = digestBytes(p.Data)
		l.hashed = time.Since(end)
	}
	return l
}

// baselineLoad reads one whole array through the shaped client mount.
func baselineLoad(mount fs.FS, req request) *load {
	l := &load{req: req}
	start := time.Now()
	field, err := readArray(mount, req.path, req.array)
	end := time.Now()
	l.dur, l.err = end.Sub(start), err
	if err == nil {
		l.digest = digestFloats(field.Values)
		l.hashed = time.Since(end)
	}
	return l
}

func readArray(mount fs.FS, path, array string) (*grid.Field, error) {
	f, err := mount.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := vtkio.OpenReader(f.(*s3fs.File))
	if err != nil {
		return nil, err
	}
	return r.ReadArray(array)
}

var digestSeed = maphash.MakeSeed()

func digestBytes(b []byte) uint64 { return maphash.Bytes(digestSeed, b) }

// digestFloats hashes the values' bit patterns, so NaN padding compares
// exactly.
func digestFloats(v []float32) uint64 {
	if len(v) == 0 {
		return digestBytes(nil)
	}
	return digestBytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v)))
}

// verify recomputes every successful load's answer locally from the
// in-memory dataset of the version it read — core.PreFilter.Run or
// core.RangePreFilter.Run for NDP loads, their reconstruction for
// sharded loads, the generated field for baseline loads — and counts
// the loads whose digest differs. It runs after the timed phases, one
// worker per CPU.
func verify(data map[int]*grid.Dataset, loads []*load, corrupt bool) (int, error) {
	index := map[string]int{}
	var reqs []request
	for _, l := range loads {
		if l.err != nil {
			continue
		}
		if _, ok := index[truthKey(l.req)]; !ok {
			index[truthKey(l.req)] = len(reqs)
			reqs = append(reqs, l.req)
		}
	}
	want := make([]uint64, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				want[i], errs[i] = truthDigest(data, reqs[i], corrupt && i == 0)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	bad := 0
	var first error
	for _, l := range loads {
		if l.err != nil || l.digest == want[index[truthKey(l.req)]] {
			continue
		}
		bad++
		if first == nil {
			first = fmt.Errorf("load of %s %s (step %d, isos %v, range [%g,%g], after put %v) is not bit-identical to the local answer",
				l.req.path, l.req.array, l.req.step, l.req.isos, l.req.lo, l.req.hi, l.req.afterPut)
		}
	}
	return bad, first
}

func truthKey(r request) string {
	k := fmt.Sprintf("%d/%d/%s/%x/%x", r.kind, r.step, r.array, math.Float64bits(r.lo), math.Float64bits(r.hi))
	for _, v := range r.isos {
		k += fmt.Sprintf("/%x", math.Float64bits(v))
	}
	return k
}

// truthDigest computes a request's answer locally. corrupt flips one
// payload bit first, so tests can watch the gate fail.
func truthDigest(data map[int]*grid.Dataset, r request, corrupt bool) (uint64, error) {
	ds := data[r.step]
	if ds == nil {
		return 0, fmt.Errorf("no dataset for step %d", r.step)
	}
	f := ds.Field(r.array)
	if r.kind == baseLoad {
		if corrupt {
			vals := append([]float32(nil), f.Values...)
			vals[0] = -vals[0] - 1
			return digestFloats(vals), nil
		}
		return digestFloats(f.Values), nil
	}
	var (
		p   *core.Payload
		err error
	)
	if r.kind == rangeLoad {
		p, _, err = (&core.RangePreFilter{Lo: r.lo, Hi: r.hi, Encoding: core.EncAuto}).Run(ds.Grid, f)
	} else {
		p, _, err = (&core.PreFilter{Isovalues: r.isos, Encoding: core.EncAuto}).Run(ds.Grid, f)
	}
	if err != nil {
		return 0, err
	}
	if corrupt {
		p.Data = append([]byte(nil), p.Data...)
		p.Data[len(p.Data)-1] ^= 1
	}
	if r.kind == shardLoad {
		vals, err := p.Reconstruct()
		if err != nil {
			return 0, err
		}
		return digestFloats(vals), nil
	}
	return digestBytes(p.Data), nil
}
