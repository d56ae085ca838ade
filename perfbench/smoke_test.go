package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json, the contract the
// printed metrics must match.
type benchmarkFile struct {
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

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmokeEveryWorkloadPrintsEveryMetric runs each workload at a tiny
// size, untraced and traced, and checks that the result line carries
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 1, trace: traced, samples: 1, tiny: true, minJobs: 2, scratch: t.TempDir()}
			var out bytes.Buffer
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", w.Name, traced, res.Correct, res.Attempted, out.String())
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (printed %v), want unit %s", w.Name, traced, d.Name, got, ok, d.Unit)
				}
			}
		}
	}
}
