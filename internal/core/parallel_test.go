// The RunParallel acceptance gates: the window executor must be
// bit-identical to the serial run for every engine and shard count,
// fall back to the serial kernel (with an identical result) when
// hub-resident observability is armed, and reproduce the checked-in
// crosscheck golden — the same fingerprint the serial executor is
// pinned to.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestParallelMatchesSerialAllProtocols is the executor's acceptance
// gate: for every engine and shard count the concurrent window
// executor must produce the exact serial fingerprint — same cycles,
// same events, same value in every architectural counter — and must
// actually have run parallel (no silent fallback hiding a broken
// path).
func TestParallelMatchesSerialAllProtocols(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		shardCounts = []int{4}
	}
	for _, p := range ProtocolNames {
		p := p
		t.Run(p, func(t *testing.T) {
			cfg := smallCfg(p, "apache4x16p")
			cfg.WarmupRefs = 100
			want, _ := runFingerprint(t, cfg)
			for _, n := range shardCounts {
				cfg.Shards = n
				cfg.Parallel = true
				got, res := runFingerprint(t, cfg)
				if res.Executor != "parallel" {
					t.Fatalf("shards=%d: executor = %q, want parallel", n, res.Executor)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d parallel fingerprint diverges from serial", n)
					diffMaps(t, fmt.Sprintf("shards=%d counter", n), got.Counters, want.Counters)
					diffMaps(t, fmt.Sprintf("shards=%d net", n), got.Net, want.Net)
					diffMaps(t, fmt.Sprintf("shards=%d miss_profile", n), got.Profile, want.Profile)
					if got.Cycles != want.Cycles || got.Events != want.Events {
						t.Errorf("shards=%d: cycles/events = %d/%d, want %d/%d",
							n, got.Cycles, got.Events, want.Cycles, want.Events)
					}
				}
			}
		})
	}
}

// TestParallelObserverFallback pins the executor-selection contract:
// hub-resident observers (checker, tracer, sampling, per-VM banks) run
// a -parallel config on the serial kernel — annotated, not erroring —
// while a plain run keeps the parallel executor. A fallback run must
// deep-equal the same config at Shards: 0 in every Result
// field (miss profile, series and per-VM split included).
func TestParallelObserverFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("many full runs")
	}
	combos := []struct {
		name                string
		check, trace, pervm bool
		sample              bool
		wantExec            string
	}{
		{name: "plain", wantExec: "parallel"},
		{name: "check", check: true, wantExec: "serial"},
		{name: "trace", trace: true, wantExec: "serial"},
		{name: "sample", sample: true, wantExec: "serial"},
		{name: "pervm", pervm: true, wantExec: "serial"},
		{name: "all", check: true, trace: true, sample: true, pervm: true, wantExec: "serial"},
	}
	for _, c := range combos {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(shards int) *Result {
				cfg := smallCfg("providers", "apache4x16p")
				cfg.WarmupRefs = 100
				cfg.Shards, cfg.Parallel = shards, shards > 0
				cfg.Check = c.check
				cfg.Trace = c.trace
				cfg.PerVM = c.pervm
				if c.sample {
					cfg.SampleEvery = 500
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res
			}
			wres := run(0)
			if wres.Executor != "serial" {
				t.Fatalf("unsharded executor = %q, want serial", wres.Executor)
			}
			gres := run(4)
			if gres.Executor != c.wantExec {
				t.Fatalf("executor = %q, want %q", gres.Executor, c.wantExec)
			}
			if c.wantExec == "parallel" {
				if got, want := fingerprintRun(gres), fingerprintRun(wres); !reflect.DeepEqual(got, want) {
					t.Errorf("fingerprint diverges from serial")
					diffMaps(t, "counter", got.Counters, want.Counters)
					diffMaps(t, "net", got.Net, want.Net)
				}
				return
			}
			requireSameResult(t, gres, wres)
		})
	}
}

// requireSameResult deep-compares two results field by field, ignoring
// only the executor-selection config fields.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	normalize := func(r *Result) Result {
		n := *r
		n.Config.Shards, n.Config.Parallel = 0, false
		return n
	}
	g, w := normalize(got), normalize(want)
	gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("Result.%s diverges from the Shards: 0 run", gv.Type().Field(i).Name)
		}
	}
}

// TestParallelCrossCheckFingerprint replays the crosscheck workload
// under the parallel executor and compares against the same golden
// the serial run is pinned to — the strongest old-vs-new gate the
// repo has, now covering the concurrent path.
func TestParallelCrossCheckFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("four full protocol runs")
	}
	if os.Getenv("CROSSCHECK_UPDATE") != "" {
		t.Skip("golden being regenerated by TestCrossCheckSeedFingerprint")
	}
	data, err := os.ReadFile(crosscheckGolden)
	if err != nil {
		t.Fatalf("missing golden (run with CROSSCHECK_UPDATE=1 to capture): %v", err)
	}
	var want map[string]protoFingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, p := range ProtocolNames {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.RefsPerCore = 400
		cfg.WarmupRefs = 800
		cfg.Shards = 4
		cfg.Parallel = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Executor != "parallel" {
			t.Fatalf("%s: executor = %q, want parallel", p, res.Executor)
		}
		g, w := fingerprintRun(res), want[p]
		if g.Cycles != w.Cycles || g.Refs != w.Refs || g.Events != w.Events || g.MemReads != w.MemReads {
			t.Errorf("%s: cycles/refs/events/mem_reads = %d/%d/%d/%d, want %d/%d/%d/%d",
				p, g.Cycles, g.Refs, g.Events, g.MemReads, w.Cycles, w.Refs, w.Events, w.MemReads)
		}
		diffMaps(t, p+" counter", g.Counters, w.Counters)
		diffMaps(t, p+" net", g.Net, w.Net)
		diffMaps(t, p+" miss_profile", g.Profile, w.Profile)
	}
}

// TestParallelLaneProfile attaches a lane profile to a parallel
// system's sharded kernel after warmup, the way the benchmark harness
// profiles the measured phase: every lane must have recorded events,
// and the serial configuration must have no sharded kernel to attach to.
func TestParallelLaneProfile(t *testing.T) {
	cfg := smallCfg("directory", "apache4x16p")
	cfg.WarmupRefs = 100
	cfg.Shards = 4
	cfg.Parallel = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SK == nil {
		t.Fatal("parallel config built no sharded kernel")
	}
	if err := sys.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	lp := &sim.LaneProfile{}
	sys.SK.SetLaneProfile(lp)
	if _, err := sys.RunMeasure(); err != nil {
		t.Fatal(err)
	}
	if lp.Lanes != 4 {
		t.Fatalf("lane profile covers %d lanes, want 4", lp.Lanes)
	}
	if lp.TotalWindows == 0 || len(lp.Windows) == 0 {
		t.Fatalf("lane profile retained no windows (total=%d)", lp.TotalWindows)
	}
	events := make([]uint64, lp.Lanes)
	for _, w := range lp.Windows {
		events[w.Lane] += w.Events
	}
	for i, n := range events {
		if n == 0 {
			t.Errorf("lane %d dispatched no events across all retained windows", i)
		}
	}
	cfg.Shards, cfg.Parallel = 0, false
	sys, err = NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SK != nil {
		t.Error("serial config built a sharded kernel")
	}
}
