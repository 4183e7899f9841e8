package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json as the self-check
// needs it.
type benchmarkFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted runs each workload for a handful of ops, untraced
// and traced, and checks that the last output line carries exactly the
// metrics BENCHMARK.json names, each with its unit, and that no op failed.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	want := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		for trace := 0; trace <= 1; trace++ {
			t.Run(fmt.Sprintf("%s/trace=%d", wl.Name, trace), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "30", "--ops", "6",
					"--trace", fmt.Sprint(trace), "--out", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want[trace]) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want[trace]))
				}
				for name, unit := range want[trace] {
					m, ok := res.Metrics[name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("metric %s not emitted", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareRefusesOtherHosts checks that compare mode will not set
// results from different machines against each other.
func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host) string {
		path := filepath.Join(dir, name)
		rec := record{Workload: "elect", Host: h, Correct: true, Attempted: 1, E2E: map[string]float64{"work_per_s": 1}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", host{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1"})
	b := write("b.jsonl", host{CPU: "x", NProc: 4, GOMAXPROCS: 4, Go: "go1"})
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// compare reads BENCHMARK.json from the repository root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out bytes.Buffer
	if err := compare(&out, []string{a, b}); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("compare across hosts: err = %v", err)
	}
	if err := compare(&out, []string{a, a}); err != nil {
		t.Fatalf("compare of one host with itself: %v", err)
	}
}
