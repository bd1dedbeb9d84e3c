package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smoke runs one tiny-scale run and returns its exit code, the
// environment record and the result line.
func smoke(t *testing.T, args ...string) (int, map[string]any, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-n", "24", "--seconds", "0.6", "-workdir", t.TempDir())
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%v: want an environment line and a result line, got %q (stderr %q)", args, stdout.String(), stderr.String())
	}
	var info map[string]any
	var res result
	if err := json.Unmarshal([]byte(lines[0]), &info); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, info, res
}

// TestSmokeEmitsEveryMetric runs every workload untraced and traced at
// N=24 and checks that each run is clean and prints every metric
// BENCHMARK.json names, with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, wl := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			code, info, res := smoke(t, "--workload", wl.Name, "--seed", "3", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, result %+v", wl.Name, trace, code, res)
			}
			want := c.EndToEnd
			if trace == "1" {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", wl.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s has unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			for _, key := range []string{"nproc", "gomaxprocs", "go_version", "grid_n", "objects", "object_bytes", "cache_bytes", "working_set_bytes", "seed"} {
				if _, ok := info[key]; !ok {
					t.Errorf("%s trace %s: environment record lacks %s", wl.Name, trace, key)
				}
			}
		}
	}
}

// TestSecondSeedRunsClean checks that the seed only varies the requests:
// another seed must pass every gate too.
func TestSecondSeedRunsClean(t *testing.T) {
	for _, wl := range []string{"cold-sweep", "warm-explore", "sharded-sweep"} {
		code, info, res := smoke(t, "--workload", wl, "--seed", "4", "--trace", "0")
		if code != 0 || !res.Correct || res.Failed != 0 {
			t.Errorf("%s seed 4: exit %d, result %+v", wl, code, res)
		}
		if info["seed"] != float64(4) {
			t.Errorf("%s: environment record has seed %v, want 4", wl, info["seed"])
		}
	}
}

// TestWrongTruthFailsGate plants a wrong truth payload and checks the
// correctness gate rejects the run on every workload, traced or not.
func TestWrongTruthFailsGate(t *testing.T) {
	for _, wl := range []string{"cold-sweep", "warm-explore", "sharded-sweep"} {
		for _, trace := range []bool{false, true} {
			cfg := config{Workload: wl, Seed: 3, Seconds: 0.3, Trace: trace, N: 24,
				WorkDir: t.TempDir(), corruptTruth: true}
			res, _, err := runBench(cfg)
			if err == nil || res == nil || res.Correct {
				t.Errorf("%s trace %v: wrong truth passed the gate (err %v)", wl, trace, err)
			}
		}
	}
}

// TestHiddenTimeFailsReconcile slows cold-sweep's client writes, time
// that no traced layer measures and that FetchStats would book as
// transfer, and checks the reconciliation gate rejects the traced run.
func TestHiddenTimeFailsReconcile(t *testing.T) {
	cfg := config{Workload: "cold-sweep", Seed: 3, Seconds: 0.3, Trace: true, N: 24,
		WorkDir: t.TempDir(), slowWire: 3 * time.Millisecond}
	res, _, err := runBench(cfg)
	if err == nil || !strings.Contains(err.Error(), "reconcile") || res == nil || res.Correct {
		t.Fatalf("hidden time passed the reconciliation gate (err %v)", err)
	}
}

// TestFailedLoadFailsRun checks that one errored load fails the run,
// rather than dropping out of the latencies.
func TestFailedLoadFailsRun(t *testing.T) {
	loads := []*load{{}, {err: errors.New("server busy")}}
	if err := clean(usage{}, loads); err == nil || !strings.Contains(err.Error(), "1 of 2 loads failed") {
		t.Fatalf("clean with a failed load: %v", err)
	}
	if err := clean(usage{}, loads[:1]); err != nil {
		t.Fatalf("clean with no failed load: %v", err)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "-workdir", t.TempDir()}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Fatalf("unknown workload printed a result: %q", stdout.String())
	}
}
