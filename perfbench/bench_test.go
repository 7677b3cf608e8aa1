package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"
)

// declared is the part of BENCHMARK.json the self-test checks against.
type declared struct {
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

// TestWorkloads runs every workload for one iteration, untraced and traced,
// in a seeded order, and checks that each run verifies, reports every
// declared metric with its declared unit, and attributes the whole CPU
// profile to modules.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	for _, dw := range d.Workloads {
		if _, ok := lookupWorkload(dw.Name); !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", dw.Name)
		}
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(workloads)) {
		w := workloads[i]
		name := w.name
		for _, trace := range []bool{false, true} {
			res, err := runBenchmark(w, options{seed: 1, trace: trace, workdir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", name, trace, len(res.Metrics), len(want))
			}
			if !trace && res.Metrics["pass_share"].Value != 1 {
				t.Errorf("%s: pass_share %v, want 1 (fail_share 0)", name, res.Metrics["pass_share"].Value)
			}
			if trace {
				sum := 0.0
				for _, mod := range modules {
					sum += res.Metrics[mod+".cpu_share"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: cpu shares sum to %v, want 1", name, sum)
				}
			}
		}
	}
}
