package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"vizndp/internal/netsim"
	"vizndp/internal/telemetry"
)

// counterNames are the program's own telemetry counters a phase diffs.
var counterNames = []string{
	"arraycache.hits", "arraycache.misses", "arraycache.coalesced", "arraycache.evictions",
	"core.payloadcache.hits", "core.payloadcache.misses",
	"core.scan.requests", "core.scan.passes", "core.scan.coalesced",
	"core.pool.failovers", "core.shard.degraded", "core.client.fallbacks",
	"netsim.delay.nanos", "rpc.client.bytes.rcvd", "objstore.bytes.out",
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// snapshot is the process-wide state a phase is measured against.
type snapshot struct {
	wall     time.Time
	cpu      time.Duration // user + system
	runtime  [5]float64    // runtimeNames, in order
	wire     int64
	counters map[string]int64
	events   uint64
}

func take(links []*netsim.Link) snapshot {
	s := snapshot{wall: time.Now(), counters: make(map[string]int64, len(counterNames))}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for i, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			s.runtime[i] = float64(sm.Value.Uint64())
		case metrics.KindFloat64:
			s.runtime[i] = sm.Value.Float64()
		}
	}
	for _, l := range links {
		s.wire += l.BytesSent()
	}
	for _, name := range counterNames {
		s.counters[name] = telemetry.Default().Counter(name).Value()
	}
	s.events = telemetry.DefaultFlightRecorder().Seq()
	return s
}

// usage is what one phase cost the whole process.
type usage struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    float64 // heap bytes allocated
	gcCycles float64
	gcCPU    float64 // runtime estimate of GC CPU seconds
	busyCPU  float64 // runtime estimate of non-idle CPU seconds
	heapPeak uint64
	wire     int64
	counters map[string]int64
	events   uint64
}

// add folds another phase's usage into u; the heap peak is the larger.
func (u *usage) add(v usage) {
	u.wall += v.wall
	u.cpu += v.cpu
	u.alloc += v.alloc
	u.gcCycles += v.gcCycles
	u.gcCPU += v.gcCPU
	u.busyCPU += v.busyCPU
	u.heapPeak = max(u.heapPeak, v.heapPeak)
	u.wire += v.wire
	u.events += v.events
	if u.counters == nil {
		u.counters = map[string]int64{}
	}
	for k, n := range v.counters {
		u.counters[k] += n
	}
}

// phase measures one timed phase: process CPU, allocation, GC, the peak
// live heap (sampled), link bytes and counter deltas.
type phase struct {
	links []*netsim.Link
	start snapshot
	stop  chan struct{}
	done  sync.WaitGroup
	peak  uint64
}

// heapSampleEvery is the heap sampler's period: short against a load,
// long enough that the sampler costs nothing measurable.
const heapSampleEvery = 2 * time.Millisecond

func startPhase(links []*netsim.Link) *phase {
	runtime.GC()
	p := &phase{links: links, stop: make(chan struct{})}
	p.start = take(links)
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *phase) end() usage {
	end := take(p.links)
	close(p.stop)
	p.done.Wait()
	u := usage{
		wall:     end.wall.Sub(p.start.wall),
		cpu:      end.cpu - p.start.cpu,
		alloc:    end.runtime[0] - p.start.runtime[0],
		gcCycles: end.runtime[1] - p.start.runtime[1],
		heapPeak: p.peak,
		wire:     end.wire - p.start.wire,
		counters: make(map[string]int64, len(counterNames)),
		events:   end.events - p.start.events,
	}
	u.gcCPU = end.runtime[2] - p.start.runtime[2]
	u.busyCPU = (end.runtime[3] - p.start.runtime[3]) - (end.runtime[4] - p.start.runtime[4])
	for _, name := range counterNames {
		u.counters[name] = end.counters[name] - p.start.counters[name]
	}
	return u
}

// latencies returns the successful loads' durations in milliseconds.
func latencies(loads []*load) []float64 {
	out := make([]float64, 0, len(loads))
	for _, l := range loads {
		if l.err == nil {
			out = append(out, float64(l.dur)/float64(time.Millisecond))
		}
	}
	return out
}

func failures(loads []*load) int {
	n := 0
	for _, l := range loads {
		if l.err != nil {
			n++
		}
	}
	return n
}
