// Command ndpbench is vizndp's benchmark. It stands up the emulated
// testbed in one process — object store, s3fs mounts, NDP server(s),
// shaped 1 Gb/s links and clients — drives one seeded, closed-loop
// workload against it, checks every answer for bit-identity, and prints
// one JSON line of metrics. See README.md for the workloads, the metrics
// and how to read a traced run.
//
//	ndpbench --workload cold-sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark run.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// N is the asteroid grid edge; each array holds N³ float32 values.
	N int
	// WorkDir holds the object store and the trace file.
	WorkDir string
	// corruptTruth flips a bit in the first truth payload, so tests can
	// prove the correctness gate rejects a mismatch.
	corruptTruth bool
	// slowWire delays every write cold-sweep's client makes, so tests
	// can plant time no traced layer accounts for and watch the
	// reconciliation gate reject it.
	slowWire time.Duration
}

// metric is one named measurement as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("ndpbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cfg := config{}
	fl.StringVar(&cfg.Workload, "workload", "", "workload: cold-sweep, warm-explore or sharded-sweep")
	fl.Int64Var(&cfg.Seed, "seed", 1, "workload seed: request order, isovalues and op mix")
	fl.Float64Var(&cfg.Seconds, "seconds", 25, "measured seconds per run, split across the run's phases")
	trace := fl.Int("trace", 0, "1 prints the per-layer split from a traced run instead of the end-to-end metrics")
	fl.IntVar(&cfg.N, "n", 128, "asteroid grid edge length")
	fl.StringVar(&cfg.WorkDir, "workdir", ".bench_build", "directory for the object store and trace output")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "ndpbench: --trace must be 0 or 1")
		return 2
	}
	res, info, err := runBench(cfg)
	if info != nil {
		line, _ := json.Marshal(info)
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintln(stderr, "ndpbench:", err)
		if res == nil {
			return 1
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(stderr, "ndpbench:", merr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// setups is how many times a run builds its testbed; setup_s is their
// median and only the last build is measured.
const setups = 3

// runBench builds the workload's testbed setups times, measures the
// last build, and checks every answer. A non-nil result with an error
// means the run measured but failed a gate.
func runBench(cfg config) (*result, map[string]any, error) {
	wl, ok := workloads[cfg.Workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want cold-sweep, warm-explore or sharded-sweep)", cfg.Workload)
	}
	if cfg.Seconds <= 0 || cfg.N < 16 {
		return nil, nil, errors.New("--seconds must be positive and -n at least 16")
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var w *bench
	setupTimes := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		w, err = wl(cfg, filepath.Join(dir, fmt.Sprintf("setup%d", i)), tr)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer w.close()

	info := w.describe()
	info["workload"] = cfg.Workload
	info["seed"] = cfg.Seed
	info["trace"] = cfg.Trace
	envRecord(info)

	total := time.Duration(cfg.Seconds * float64(time.Second))
	var res *result
	if cfg.Trace {
		res, err = traced(cfg, w, total, info)
	} else {
		res, err = untraced(cfg, w, total, setupTimes, info)
	}
	if res != nil {
		res.Correct = res.Correct && err == nil
	}
	return res, info, err
}

// envRecord notes the host the run measured on.
func envRecord(info map[string]any) {
	info["nproc"] = runtime.NumCPU()
	info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	info["go_version"] = runtime.Version()
	info["goarch"] = runtime.GOARCH
}
