package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"runtime"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/grid"
	"vizndp/internal/netsim"
	"vizndp/internal/objstore"
	"vizndp/internal/s3fs"
	"vizndp/internal/sim"
	"vizndp/internal/vtkio"
)

// The paper's testbed: a 1 GbE link with 100 µs latency between the
// client node and the storage node.
const (
	linkBits    = 1 * netsim.Gbps
	linkLatency = 100 * time.Microsecond
	bucket      = "sim"
	// member is the asteroid ensemble member. The dataset is fixed; the
	// workload seed varies only the requests, so runs with different
	// seeds measure the same storage contents.
	member = 7
)

// arrays are the two asteroid arrays every workload loads (Fig. 13).
var arrays = []string{"v02", "v03"}

// testbed is one emulated deployment: a directory-backed object store
// with an unshaped storage-node listener and a shaped client-node one,
// plus whatever NDP servers a workload starts.
type testbed struct {
	local    *objstore.Client // storage-node view, unshaped
	remote   *objstore.Client // client-node view over baseLink
	baseLink *netsim.Link
	objects  int
	bytes    int64
	closers  []func()
}

func newTestbed(dir string) (*testbed, error) {
	store, err := objstore.NewServer(dir)
	if err != nil {
		return nil, err
	}
	tb := &testbed{baseLink: netsim.NewLink(linkBits, linkLatency)}
	addrLocal, closeLocal, err := store.ListenAndServe("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	tb.closers = append(tb.closers, func() { closeLocal() })
	addrRemote, closeRemote, err := store.ListenAndServe("127.0.0.1:0", tb.baseLink.Listener)
	if err != nil {
		tb.close()
		return nil, err
	}
	tb.closers = append(tb.closers, func() { closeRemote() })
	tb.local = objstore.NewClient(addrLocal, nil)
	tb.remote = objstore.NewClient(addrRemote, tb.baseLink.Dial)
	return tb, nil
}

// put stores one object through the storage-node view.
func (tb *testbed) put(key string, data []byte) error {
	if err := tb.local.Put(bucket, key, data); err != nil {
		return fmt.Errorf("storing %s: %w", key, err)
	}
	tb.objects++
	tb.bytes += int64(len(data))
	return nil
}

// serverFS is the storage-node s3fs mount an NDP server reads through;
// a traced run puts a timing wrapper in front of it.
func (tb *testbed) serverFS(tr *tracer) fs.FS {
	mount := s3fs.New(tb.local, bucket)
	if tr == nil {
		return mount
	}
	return &timingFS{fsys: mount, tr: tr}
}

// startNDP runs an NDP server behind its own shaped link and returns its
// address.
func (tb *testbed) startNDP(fsys fs.FS, link *netsim.Link, opts ...core.ServerOption) (string, error) {
	srv := core.NewServer(fsys, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(link.Listener(ln))
	}()
	tb.closers = append(tb.closers, func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String(), nil
}

// onClose registers a teardown step; steps run in reverse order.
func (tb *testbed) onClose(f func()) { tb.closers = append(tb.closers, f) }

func (tb *testbed) close() {
	for i := len(tb.closers) - 1; i >= 0; i-- {
		tb.closers[i]()
	}
	tb.closers = nil
}

// steps returns the first, middle and last asteroid timesteps, whose
// selectivities span about 1.6‰ to 30‰ (Fig. 6).
func steps() []int { return sim.AsteroidConfig{}.Timesteps(3) }

// generate builds the v02/v03 dataset of each timestep. Only the two
// loaded arrays are kept, so each stored object holds 2 × 4·N³ bytes.
func generate(n int, ts []int) (map[int]*grid.Dataset, error) {
	cfg := sim.AsteroidConfig{N: n, Seed: member}
	out := make(map[int]*grid.Dataset, len(ts))
	for _, step := range ts {
		full, err := cfg.Generate(step)
		if err != nil {
			return nil, err
		}
		ds, err := full.Select(arrays...)
		if err != nil {
			return nil, err
		}
		out[step] = ds
	}
	// The other nine generated arrays are garbage now; collect them so
	// the measured phases start from the working set alone.
	runtime.GC()
	return out, nil
}

// encode serializes ds with page CRCs on, as every stored object is.
func encode(ds *grid.Dataset, codec compress.Kind) ([]byte, error) {
	var buf bytes.Buffer
	if err := vtkio.Write(&buf, ds, vtkio.WriteOptions{Codec: codec, Checksum: true}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// objectKey names the stored object of one codec and timestep.
func objectKey(codec compress.Kind, step int) string {
	return fmt.Sprintf("asteroid/%s/ts%05d.vnd", codec, step)
}
