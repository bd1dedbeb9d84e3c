package main

import (
	"bufio"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one load share its
// load span as parent; Parent 0 marks a root, or a server-side call
// that could not be tied to one load because two callers were in flight.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// tracer keeps a traced run's spans in memory and sums the s3fs layer's
// calls. It records only while on; a nil tracer records nothing.
type tracer struct {
	t0 time.Time
	on atomic.Bool
	// single is set when one caller drives the workload, so every
	// server-side call belongs to the load in flight.
	single bool
	cur    atomic.Uint64
	next   atomic.Uint64

	mu    sync.Mutex
	spans []span

	readNS, reads, readBytes, statNS, stats atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// beginLoad allocates the load span's id before the load starts, so the
// server-side spans it causes can name it.
func (t *tracer) beginLoad() uint64 {
	if !t.active() {
		return 0
	}
	id := t.next.Add(1)
	if t.single {
		t.cur.Store(id)
	}
	return id
}

// endLoad records a single-server load: the load span, the fetch call
// and the client-side reconstruct.
func (t *tracer) endLoad(id uint64, start, fetched, end time.Time) {
	if id == 0 || !t.active() {
		return
	}
	t.cur.Store(0)
	t.add(span{ID: id, Name: "load", Start: t.ns(start), End: t.ns(end)})
	t.add(span{ID: t.next.Add(1), Parent: id, Name: "core.fetch", Start: t.ns(start), End: t.ns(fetched)})
	t.add(span{ID: t.next.Add(1), Parent: id, Name: "core.reconstruct", Start: t.ns(fetched), End: t.ns(end)})
}

// endShardLoad records a sharded load: the load span and its
// scatter-gather call.
func (t *tracer) endShardLoad(id uint64, start, end time.Time) {
	if id == 0 || !t.active() {
		return
	}
	t.cur.Store(0)
	t.add(span{ID: id, Name: "load", Start: t.ns(start), End: t.ns(end)})
	t.add(span{ID: t.next.Add(1), Parent: id, Name: "core.shard.fetcharray", Start: t.ns(start), End: t.ns(end)})
}

// endCall records one call of the given layer, parented to the load in
// flight when there is exactly one.
func (t *tracer) endCall(name string, start time.Time, bytes int64) {
	end := time.Now()
	t.add(span{ID: t.next.Add(1), Parent: t.cur.Load(), Name: name, Start: t.ns(start), End: t.ns(end), Bytes: bytes})
}

// s3fsByLoad sums each load's s3fs stat and read spans by load span.
// Only a single caller's spans name their load.
func (t *tracer) s3fsByLoad() map[uint64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[uint64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 && (s.Name == "s3fs.stat" || s.Name == "s3fs.readat") {
			out[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// write saves the spans as JSON lines and returns how many there were.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}

// timingFS sits between an NDP server and its s3fs mount and times
// every object stat and ranged read the server makes.
type timingFS struct {
	fsys fs.FS
	tr   *tracer
}

// Open stats the object (s3fs.FS.Open issues one object stat).
func (t *timingFS) Open(name string) (fs.File, error) {
	start := time.Now()
	f, err := t.fsys.Open(name)
	t.stat(start)
	if err != nil {
		return nil, err
	}
	ra, ok := f.(io.ReaderAt)
	if !ok {
		return f, nil
	}
	return &timingFile{File: f, ra: ra, tr: t.tr}, nil
}

// Stat keeps the server's version probes a single object stat.
func (t *timingFS) Stat(name string) (fs.FileInfo, error) {
	start := time.Now()
	info, err := fs.Stat(t.fsys, name)
	t.stat(start)
	return info, err
}

func (t *timingFS) stat(start time.Time) {
	if !t.tr.active() {
		return
	}
	t.tr.statNS.Add(int64(time.Since(start)))
	t.tr.stats.Add(1)
	t.tr.endCall("s3fs.stat", start, 0)
}

type timingFile struct {
	fs.File
	ra io.ReaderAt
	tr *tracer
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	if !f.tr.active() {
		return f.ra.ReadAt(p, off)
	}
	start := time.Now()
	n, err := f.ra.ReadAt(p, off)
	f.tr.readNS.Add(int64(time.Since(start)))
	f.tr.reads.Add(1)
	f.tr.readBytes.Add(int64(n))
	f.tr.endCall("s3fs.readat", start, int64(n))
	return n, err
}
