package harness

import (
	"fmt"
	"time"

	"vizndp/internal/compress"
	"vizndp/internal/core"
	"vizndp/internal/stats"
	"vizndp/internal/telemetry"
)

// RepeatFetch measures the storage-side array cache on interactive
// re-fetch workloads (a user sweeping contour values over one loaded
// timestep). It stands up a dedicated NDP server with a decoded-array
// cache of Cfg.CacheBytes behind the same shaped link — the
// environment's shared server stays uncached so the other experiments
// keep measuring cold reads — and, per contour value, times a cold
// fetch (cache reset first) against a warm repeat of the same request.
// Cold and warm payloads are checked bit-identical against the uncached
// shared server before any row is reported.
func (e *Env) RepeatFetch(dataset string, codec compress.Kind, step int, array string) (*stats.Table, error) {
	n, err := e.startNode(nil, e.Link, core.WithCacheBytes(e.Cfg.CacheBytes))
	if err != nil {
		return nil, err
	}
	defer n.Close()
	client, err := n.dial()
	if err != nil {
		return nil, err
	}
	defer client.Close()

	hits := telemetry.Default().Counter("arraycache.hits")
	misses := telemetry.Default().Counter("arraycache.misses")
	hits0, misses0 := hits.Value(), misses.Value()

	key := ObjectKey(dataset, codec, step)
	t := stats.NewTable(
		fmt.Sprintf("Repeat fetch (%s %s, %s, cache %s): cold vs warm load times",
			dataset, array, codec, stats.FormatBytes(e.Cfg.CacheBytes)),
		"iso", "cold", "warm", "speedup", "cold read", "warm read", "payload")

	for _, iso := range e.Cfg.ContourValues {
		isos := []float64{iso}
		var cold, warm time.Duration
		var coldRead, warmRead time.Duration
		var payloadBytes int64
		for r := 0; r < e.Cfg.Repeats; r++ {
			// Cold: an empty cache forces the full read+decompress path.
			n.srv.Cache().Reset()
			start := time.Now()
			cp, cst, err := client.FetchFiltered(key, array, isos, e.Cfg.Encoding)
			if err != nil {
				return nil, err
			}
			cold += time.Since(start)

			// Warm: the decoded array is resident; only filter + transfer
			// remain.
			start = time.Now()
			wp, wst, err := client.FetchFiltered(key, array, isos, e.Cfg.Encoding)
			if err != nil {
				return nil, err
			}
			warm += time.Since(start)

			coldRead += cst.ReadTime
			warmRead += wst.ReadTime
			payloadBytes = wst.PayloadBytes
			if string(cp.Data) != string(wp.Data) {
				return nil, fmt.Errorf("harness: warm payload differs from cold for iso %g", iso)
			}
			if r == 0 {
				// Ground truth: the shared, uncached server must produce
				// the same bytes.
				up, _, err := e.ndpClient.FetchFiltered(key, array, isos, e.Cfg.Encoding)
				if err != nil {
					return nil, err
				}
				if string(cp.Data) != string(up.Data) {
					return nil, fmt.Errorf("harness: cached payload differs from uncached for iso %g", iso)
				}
			}
		}
		reps := time.Duration(e.Cfg.Repeats)
		cold, warm = cold/reps, warm/reps
		t.AddRow(fmt.Sprintf("%.2f", iso),
			stats.FormatDuration(cold),
			stats.FormatDuration(warm),
			fmt.Sprintf("%.2fx", stats.Speedup(cold, warm)),
			stats.FormatDuration(coldRead/reps),
			stats.FormatDuration(warmRead/reps),
			stats.FormatBytes(payloadBytes))
	}
	t.AddRow("cache",
		fmt.Sprintf("%d misses", misses.Value()-misses0),
		fmt.Sprintf("%d hits", hits.Value()-hits0),
		"", "", "", "")
	return t, nil
}
