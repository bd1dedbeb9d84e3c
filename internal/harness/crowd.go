package harness

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/rpc"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
)

// CrowdExperiment models the millions-of-users scaling story at bench
// size: hundreds of synthetic clients arrive open-loop (fixed arrival
// schedule, no coordination with completions) against one admission-
// bounded NDP server, every request contouring the same array at an
// isovalue cycled from the configured sweep. Three rounds:
//
//  1. ground truth — a sequential sweep over an unbounded, uncoalesced
//     server pins the expected payload bytes per isovalue;
//  2. uncoalesced crowd — the full arrival schedule against admission
//     control alone: every admitted request pays its own scan, so
//     scans-per-request is exactly one;
//  3. coalesced crowd — the same schedule with scan coalescing and the
//     payload cache: concurrent requests share multi-isovalue scans and
//     repeats are served from cache, driving scans-per-request below one.
//
// The experiment hard-errors unless the coalesced round's
// scans-per-request drops below 1 (and below the uncoalesced round's),
// requests actually coalesced, the payload cache actually hit, every
// served payload is bit-identical to its ground-truth twin, and the
// core.scan.coalesced / payload-cache-hit counters reconcile with the
// wide-event flight ring. Shed requests (rpc.ErrBusy) are reported, not
// retried — the crowd is open-loop.
func (e *Env) CrowdExperiment(array string) (*stats.Table, error) {
	const dataset = "asteroid"
	const arrivals = 384
	const numConns = 64
	const ramp = 250 * time.Millisecond
	codec := compress.None
	step := e.steps[0]
	key := ObjectKey(dataset, codec, step)
	isos := e.Cfg.ContourValues

	mRequests := telemetry.Default().Counter("core.scan.requests")
	mPasses := telemetry.Default().Counter("core.scan.passes")
	mCoalesced := telemetry.Default().Counter("core.scan.coalesced")
	mPCHits := telemetry.Default().Counter("core.payloadcache.hits")

	admission := []core.ServerOption{
		core.WithCacheBytes(e.Cfg.CacheBytes),
		core.WithMaxInFlight(32), core.WithQueue(64),
	}

	// Round 1: sequential ground truth from an unbounded server.
	truthNode, err := e.startNode(nil, e.Link)
	if err != nil {
		return nil, err
	}
	defer truthNode.Close()
	truth, err := truthNode.dial()
	if err != nil {
		return nil, err
	}
	want := make(map[uint64]string, len(isos))
	for _, iso := range isos {
		p, _, err := truth.FetchFiltered(key, array, []float64{iso}, e.Cfg.Encoding)
		if err != nil {
			truth.Close()
			return nil, fmt.Errorf("harness: ground truth iso %g: %w", iso, err)
		}
		want[math.Float64bits(iso)] = string(p.Data)
	}
	truth.Close()

	type crowdResult struct {
		served, shed, mismatched int
		lats                     []float64
	}
	// runCrowd fires the open-loop arrival schedule at n: arrival k
	// sleeps until its slot (k/arrivals into the ramp), issues one fetch
	// over a pooled connection, and classifies the outcome. Arrival times
	// are fixed up front — a slow or shed request delays nobody.
	runCrowd := func(n *node) (*crowdResult, error) {
		conns := make([]*core.Client, 0, numConns)
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for len(conns) < numConns {
			c, err := n.dial()
			if err != nil {
				return nil, err
			}
			conns = append(conns, c)
		}
		res := &crowdResult{}
		var mu sync.Mutex
		var firstErr error
		start := time.Now().Add(20 * time.Millisecond)
		var wg sync.WaitGroup
		for k := 0; k < arrivals; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				iso := isos[k%len(isos)]
				time.Sleep(time.Until(start.Add(time.Duration(k) * ramp / arrivals)))
				t0 := time.Now()
				p, _, err := conns[k%numConns].FetchFiltered(key, array, []float64{iso}, e.Cfg.Encoding)
				lat := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if errors.Is(err, rpc.ErrBusy) {
						res.shed++
						return
					}
					if firstErr == nil {
						firstErr = fmt.Errorf("harness: crowd arrival %d iso %g: %w", k, iso, err)
					}
					return
				}
				if string(p.Data) != want[math.Float64bits(iso)] {
					res.mismatched++
				}
				res.served++
				res.lats = append(res.lats, lat)
			}(k)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if res.served+res.shed != arrivals {
			return nil, fmt.Errorf("harness: crowd accounting: %d served + %d shed != %d arrivals",
				res.served, res.shed, arrivals)
		}
		if res.mismatched > 0 {
			return nil, fmt.Errorf("harness: %d of %d served payloads differ from ground truth",
				res.mismatched, res.served)
		}
		return res, nil
	}

	// Round 2: the crowd against admission control, uncoalesced.
	plainNode, err := e.startNode(nil, e.Link, admission...)
	if err != nil {
		return nil, err
	}
	defer plainNode.Close()
	req0, pass0 := mRequests.Value(), mPasses.Value()
	plain, err := runCrowd(plainNode)
	if err != nil {
		return nil, err
	}
	plainReqs, plainPasses := mRequests.Value()-req0, mPasses.Value()-pass0
	if plainReqs == 0 || plainPasses != plainReqs {
		return nil, fmt.Errorf("harness: uncoalesced round ran %d scan passes for %d requests, want one each",
			plainPasses, plainReqs)
	}
	plainSPR := float64(plainPasses) / float64(plainReqs)

	// Round 3: the same crowd with scan coalescing and the payload cache.
	coalNode, err := e.startNode(nil, e.Link, append(admission,
		core.WithCoalesce(2*time.Millisecond),
		core.WithPayloadCacheBytes(64<<20))...)
	if err != nil {
		return nil, err
	}
	defer coalNode.Close()
	rec := telemetry.DefaultFlightRecorder()
	seq0 := rec.Seq()
	req0, pass0 = mRequests.Value(), mPasses.Value()
	coal0, hit0 := mCoalesced.Value(), mPCHits.Value()
	shared, err := runCrowd(coalNode)
	if err != nil {
		return nil, err
	}
	coalReqs, coalPasses := mRequests.Value()-req0, mPasses.Value()-pass0
	coalN, hitN := mCoalesced.Value()-coal0, mPCHits.Value()-hit0
	if coalReqs == 0 {
		return nil, fmt.Errorf("harness: coalesced round served no requests")
	}
	coalSPR := float64(coalPasses) / float64(coalReqs)
	if coalSPR >= 1 || coalSPR >= plainSPR {
		return nil, fmt.Errorf("harness: coalescing did not reduce scans-per-request: %.3f coalesced vs %.3f uncoalesced",
			coalSPR, plainSPR)
	}
	if coalN == 0 {
		return nil, fmt.Errorf("harness: no request coalesced onto a shared scan (window too short for this machine?)")
	}
	if hitN == 0 {
		return nil, fmt.Errorf("harness: payload cache never hit across %d requests", coalReqs)
	}

	// Counter/wide-event reconciliation: every coalesced request and every
	// payload-cache hit must appear as an attributed server-side fetch
	// event in the flight ring, and vice versa.
	if err := settle(func() error {
		var evFollowers, evHits int64
		for _, ev := range rec.Events(telemetry.EventFilter{Method: core.MethodFetch, SinceSeq: seq0}) {
			if ev.Kind != telemetry.KindServer {
				continue
			}
			if v, ok := ev.Attrs["coalesced-scan"].(string); ok && v == "follower" {
				evFollowers++
			}
			if v, ok := ev.Attrs["payloadcache"].(string); ok && v == "hit" {
				evHits++
			}
		}
		if evFollowers != coalN {
			return fmt.Errorf("harness: core.scan.coalesced=%d but flight ring has %d follower events",
				coalN, evFollowers)
		}
		if evHits != hitN {
			return fmt.Errorf("harness: payload cache hits=%d but flight ring has %d hit events",
				hitN, evHits)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	plainP50, plainP99 := pcts(plain.lats)
	coalP50, coalP99 := pcts(shared.lats)
	t := stats.NewTable(
		fmt.Sprintf("Crowd: %d open-loop arrivals over %v, %d isovalues, server bounded to 32 in flight + 64 queued (%s)",
			arrivals, ramp, len(isos), array),
		"run", "arrivals", "served", "shed", "p50", "p99", "scans/req", "coalesced", "cache hits", "identical")
	t.AddRow("ground truth", fmt.Sprintf("%d", len(isos)), fmt.Sprintf("%d", len(isos)),
		"0", "", "", "1.000", "", "", "reference")
	t.AddRow("uncoalesced", fmt.Sprintf("%d", arrivals), fmt.Sprintf("%d", plain.served),
		fmt.Sprintf("%d", plain.shed), plainP50, plainP99,
		fmt.Sprintf("%.3f", plainSPR), "0", "0", "yes")
	t.AddRow("coalesced+cache", fmt.Sprintf("%d", arrivals), fmt.Sprintf("%d", shared.served),
		fmt.Sprintf("%d", shared.shed), coalP50, coalP99,
		fmt.Sprintf("%.3f", coalSPR), fmt.Sprintf("%d", coalN), fmt.Sprintf("%d", hitN), "yes")
	return t, nil
}
