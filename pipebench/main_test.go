package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// smokeShrink runs every workload at 1/64 of its population: a few
// batches, a few checkpoints, the same code path.
const smokeShrink = 6

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runSmoke runs one tiny measurement and returns its printed lines and
// the parsed result object.
func runSmoke(t *testing.T, workload string, trace bool) ([]string, result) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{
		workload: workload, seed: 7, seconds: 1e-3, trace: trace, shrink: smokeShrink,
		spans: filepath.Join(t.TempDir(), "spans.json"), root: "..",
	}
	ok, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, out.String())
	}
	if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: run not correct (ok=%t %+v)\n%s", workload, ok, res, out.String())
	}
	return lines, res
}

// printed returns the value and unit of a "<prefix> <name> <value> <unit>"
// line.
func printed(lines []string, prefix, name string) (value, unit string, found bool) {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == prefix && f[1] == name {
			return f[2], f[3], true
		}
	}
	return "", "", false
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			lines, res := runSmoke(t, w.name, false)
			for _, def := range endToEnd {
				v, unit, ok := printed(lines, "metric", def.name)
				if !ok || unit != def.unit {
					t.Errorf("metric %s not printed with unit %s (got %q %q)", def.name, def.unit, v, unit)
				}
				m, ok := res.Metrics[def.name]
				if !ok || m.Value == nil || m.Unit != def.unit {
					t.Errorf("result object lacks %s in %s", def.name, def.unit)
				} else if *m.Value == 0 && def.name != "recall" {
					// Recall may read 0 in one small round of an
					// order-dependent workload; every other metric is a
					// count, size or time that cannot.
					t.Errorf("%s reads 0", def.name)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("result object has %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, name := range []string{"query_p50_ms", "query_p99_ms"} {
				v, unit, ok := printed(lines, "metric", name)
				if !ok || unit != "ms" {
					t.Errorf("metric %s not printed in ms", name)
				}
				if (v != "n/a") != (w.queryEvery > 0) {
					t.Errorf("metric %s reads %s on a workload with queryEvery=%d", name, v, w.queryEvery)
				}
			}
			v, unit, ok := printed(lines, "metric", "failed_frac")
			if f, err := strconv.ParseFloat(v, 64); !ok || unit != "frac" || err != nil || f != 0 {
				t.Errorf("failed_frac = %q %q, want 0 frac", v, unit)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			lines, res := runSmoke(t, w.name, true)
			for _, def := range perLayer {
				if _, unit, ok := printed(lines, "layer", def.name); !ok || unit != def.unit {
					t.Errorf("layer metric %s not printed with unit %s", def.name, def.unit)
				}
				if m, ok := res.Metrics[def.name]; !ok || m.Value == nil || m.Unit != def.unit {
					t.Errorf("result object lacks %s in %s", def.name, def.unit)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("result object has %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
		})
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the program's own
// workload and metric tables in step.
func TestBenchmarkManifest(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, m.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}
