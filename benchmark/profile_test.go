package main

import (
	"os"
	"testing"
)

// testdata/cpu.pb.gz is a CPU profile of two traced apache rounds,
// labelled as the benchmark labels them.
func readTestProfile(t *testing.T) *profile {
	t.Helper()
	data, err := os.ReadFile("testdata/cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFoldSumsToTotal(t *testing.T) {
	p := readTestProfile(t)
	var all, measured int64
	for _, s := range p.samples {
		all += s.values[1]
		if s.labels["phase"] == "measure" {
			measured += s.values[1]
		}
	}
	if measured == 0 || measured == all {
		t.Fatalf("test profile should hold measured and unlabelled samples: %d of %d ns", measured, all)
	}
	for _, c := range []struct {
		want  map[string]string
		total int64
	}{{nil, all}, {map[string]string{"phase": "measure"}, measured}} {
		byLayer, err := fold(p, c.want)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, l := range layers {
			sum += byLayer[l]
		}
		if sum != c.total || len(byLayer) > len(layers) {
			t.Errorf("fold(%v): layers sum to %d over %d layers, want %d",
				c.want, sum, len(byLayer), c.total)
		}
	}
	byLayer, _ := fold(p, map[string]string{"phase": "measure"})
	for _, l := range []string{"sim", "proto", "cache", "core"} {
		if byLayer[l] == 0 {
			t.Errorf("measured phase has no %s samples: %v", l, byLayer)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Kernel).Step":                     "sim",
		"repro/internal/cache.(*Cache).Probe":                   "cache",
		"repro/internal/proto.(*DiCo).atL1":                     "proto",
		"repro/internal/proto.(*Directory).bind.func3":          "proto",
		"repro/internal/mesh.(*Network).send":                   "mesh",
		"repro/internal/memctrl.(*Mapper).TranslateAt":          "memctrl",
		"repro/internal/workload.(*Generator).Next":             "workload",
		"repro/internal/core.(*tileDriver).done":                "core",
		"repro/internal/stats.(*Set).Get":                       "other",
		"repro/internal/check.(*Shadow).Retired":                "other",
		"repro/internal/topo.Grid.Hops":                         "other",
		"runtime.mallocgc":                                      "runtime",
		"runtime/pprof.(*profMap).lookup":                       "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":          "runtime",
		"sync.(*RWMutex).RLock":                                 "other",
		"main.(*runner).timedRun":                               "other",
		"repro/internal/sim.(*ShardedKernel).RunParallel.func1": "sim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// Every function in the test profile resolves to a known layer.
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, fn := range readTestProfile(t).funcName {
		if !known[layerOf(fn)] {
			t.Errorf("layerOf(%q) = %q, not a layer", fn, layerOf(fn))
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{0x12, 0x05, 0x01},       // sample field longer than the input
		{0x08, 0xff, 0xff, 0xff}, // truncated varint
		{0x0b},                   // unsupported wire type 3
	} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("parseProfile(%x) accepted garbage", data)
		}
	}
}
