package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyOptions run a workload in a fraction of a second: one round of
// each kind and minimal probes.
var tinyOptions = options{seed: 1, checkRefs: 100,
	probe: probeSizes{RefsPerTile: 60, Chunks: 3, Events: 1000, Misses: 20}}

func tiny(s spec) spec {
	s.Warmup, s.Refs = 100, 100
	return s
}

// TestEveryMetricEmitted runs every workload at tiny sizes in both
// modes and checks that each metric BENCHMARK.json declares for the
// mode is emitted, with its declared unit, and nothing else; that every
// run passes its checks; and that the layer self times add up to the
// sampled total.
func TestEveryMetricEmitted(t *testing.T) {
	d := readDeclared(t)
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			opt := tinyOptions
			opt.trace = trace
			res, err := run(tiny(s), opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d/%d runs failed: %v", s.Name, trace, res.Failed, res.Attempted, res.Errors)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", s.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", s.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json declares %d", s.Name, trace, len(res.Metrics), len(want))
			}
			if trace {
				sum := 0.0
				for _, l := range layers {
					sum += res.Metrics[l+".self_ns_per_ref"].Value
				}
				if total := res.Metrics["trace.sampled_ns_per_ref"].Value; sum != total {
					t.Errorf("%s: layer self times sum to %v, sampled total is %v", s.Name, sum, total)
				}
			}
			line, err := summaryLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil || !parsed.Correct || len(parsed.Metrics) != len(want) {
				t.Errorf("%s trace=%v: bad summary line %s (%v)", s.Name, trace, line, err)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(c.data)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestCompare checks that -compare passes identical sides, flags a
// resolved regression beyond the bound and a count mismatch, and calls
// a regression inside a wide spread unresolved.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(krefs, spread float64, events uint64) *runResult {
		return &runResult{Workload: "apache", Seed: 1,
			Metrics: map[string]stat{"krefs_per_s": {Unit: "krefs/s", Value: krefs, Median: krefs,
				Q1: krefs * (1 - spread/2), Q3: krefs * (1 + spread/2), N: 9}},
			Counts:  map[string]uint64{"directory.events": events},
			Digests: map[string]string{"directory": "abc"}}
	}
	write := func(name string, r *runResult) string {
		p := filepath.Join(dir, name)
		if err := appendResult(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk(2000, 0.02, 100))
	for _, c := range []struct {
		name   string
		run    *runResult
		ok     bool
		output string
	}{
		{"same", mk(2000, 0.02, 100), true, " ok"},
		{"slower", mk(1000, 0.02, 100), false, "REGRESSED"},
		{"noisy", mk(1000, 0.6, 100), true, "unresolved"},
		{"counts", mk(2000, 0.02, 101), false, "count mismatch"},
	} {
		var out strings.Builder
		ok, err := compareFiles(&out, "../BENCHMARK.json", base, write(c.name+".json", c.run))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.output) {
			t.Errorf("%s: ok=%v, want %v, output lacks %q:\n%s", c.name, ok, c.ok, c.output, out.String())
		}
	}
}
