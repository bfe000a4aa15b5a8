package core

import (
	"fmt"
	"reflect"
	"testing"
)

// runFingerprint builds and runs cfg and reduces the result to its
// deterministic counters.
func runFingerprint(t *testing.T, cfg Config) (protoFingerprint, *Result) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("shards=%d: %v", cfg.Shards, err)
	}
	return fingerprintRun(res), res
}

// TestShardedMatchesSerialAllProtocols is the tentpole acceptance
// gate: for every engine, a sharded run (any shard count, including
// one lane per tile) must be bit-identical to the serial run — same
// cycles, same events, same value in every architectural counter.
func TestShardedMatchesSerialAllProtocols(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		shardCounts = []int{2}
	}
	for _, p := range ProtocolNames {
		p := p
		t.Run(p, func(t *testing.T) {
			cfg := smallCfg(p, "apache4x16p")
			cfg.WarmupRefs = 100
			want, _ := runFingerprint(t, cfg)
			for _, n := range shardCounts {
				cfg.Shards = n
				got, _ := runFingerprint(t, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d fingerprint diverges from serial", n)
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

// TestShardedMatchesSerialWithObservers repeats the gate with every
// observer armed — coherence checker, kernel/latency profiling,
// telemetry sampling, causal tracing — in all on/off combinations.
// The observers read global state (chip-wide queue depth, shadow
// memory), so they are the part most likely to see a difference
// between the executors.
func TestShardedMatchesSerialWithObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("many full runs")
	}
	combos := []struct {
		name                  string
		check, profile, trace bool
		sample, pervm         bool
	}{
		{name: "check", check: true},
		{name: "profile", profile: true},
		{name: "sample", sample: true},
		{name: "trace", trace: true},
		{name: "pervm", pervm: true},
		{name: "all", check: true, profile: true, sample: true, trace: true, pervm: true},
	}
	for _, c := range combos {
		c := c
		t.Run(c.name, func(t *testing.T) {
			mk := func(shards int) Config {
				cfg := smallCfg("providers", "apache4x16p")
				cfg.WarmupRefs = 100
				cfg.Shards = shards
				cfg.Check = c.check
				cfg.Profile = c.profile
				cfg.Trace = c.trace
				cfg.PerVM = c.pervm
				if c.sample {
					cfg.SampleEvery = 500
				}
				return cfg
			}
			want, wres := runFingerprint(t, mk(0))
			got, gres := runFingerprint(t, mk(3))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("sharded fingerprint diverges from serial")
				diffMaps(t, "counter", got.Counters, want.Counters)
				diffMaps(t, "net", got.Net, want.Net)
			}
			if c.profile {
				// The profile itself must match too: dispatch counts and
				// the queue-depth histogram (observed chip-wide in both
				// modes) are part of the deterministic surface.
				if !reflect.DeepEqual(gres.Prof.Kernel, wres.Prof.Kernel) {
					t.Errorf("kernel profile diverges:\nsharded %+v\nserial  %+v",
						gres.Prof.Kernel, wres.Prof.Kernel)
				}
				if !reflect.DeepEqual(gres.Prof.MissLatency, wres.Prof.MissLatency) {
					t.Errorf("miss-latency histogram diverges")
				}
				for i := range wres.Prof.Phases {
					g, w := gres.Prof.Phases[i], wres.Prof.Phases[i]
					if g.Cycles != w.Cycles || g.Events != w.Events || g.Refs != w.Refs {
						t.Errorf("phase %s: cycles/events/refs = %d/%d/%d, want %d/%d/%d",
							w.Name, g.Cycles, g.Events, g.Refs, w.Cycles, w.Events, w.Refs)
					}
				}
			}
			if c.sample {
				gs, ws := gres.Series, wres.Series
				if gs == nil || ws == nil {
					t.Fatalf("missing series: sharded=%v serial=%v", gs != nil, ws != nil)
				}
				if !reflect.DeepEqual(gs, ws) {
					t.Errorf("telemetry series diverges")
				}
			}
			if c.pervm {
				requireSamePerVM(t, gres.PerVM, wres.PerVM)
			}
		})
	}
}

// requireSamePerVM compares two per-VM attributions field by field
// (counter banks by name, so a registration-order artifact cannot hide
// a value difference).
func requireSamePerVM(t *testing.T, got, want []VMStat) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("per-VM: %d VMs vs %d", len(got), len(want))
		return
	}
	for v := range want {
		g, w := &got[v], &want[v]
		if g.VM != w.VM || g.Tiles != w.Tiles || g.Refs != w.Refs ||
			g.Flits != w.Flits || g.Routers != w.Routers {
			t.Errorf("VM %d: identity/refs/net = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
				w.VM, g.VM, g.Tiles, g.Refs, g.Flits, g.Routers, w.VM, w.Tiles, w.Refs, w.Flits, w.Routers)
		}
		gn, wn := g.Counters.Names(), w.Counters.Names()
		if !reflect.DeepEqual(gn, wn) {
			t.Errorf("VM %d: counter name sets differ: %v vs %v", w.VM, gn, wn)
			continue
		}
		for _, name := range wn {
			if gv, wv := g.Counters.Value(name), w.Counters.Value(name); gv != wv {
				t.Errorf("VM %d: counter %s = %d, want %d", w.VM, name, gv, wv)
			}
		}
		if !reflect.DeepEqual(g.Breakdown, w.Breakdown) {
			t.Errorf("VM %d: energy breakdown diverges", w.VM)
		}
		if g.MissLatency != w.MissLatency {
			t.Errorf("VM %d: miss-latency histogram diverges", w.VM)
		}
		if g.P50 != w.P50 || g.P99 != w.P99 || g.P999 != w.P999 {
			t.Errorf("VM %d: percentiles %d/%d/%d, want %d/%d/%d",
				w.VM, g.P50, g.P99, g.P999, w.P50, w.P99, w.P999)
		}
	}
}

// TestShardedTelemetryInvariant pins the telemetry invariance claims
// across shard counts 1, 2, 4 and 8 (and the serial executor) for
// every engine: the span trace and the epoch series observe only
// simulation state, so both are deep-equal.
func TestShardedTelemetryInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("many full runs")
	}
	run := func(cfg Config) (*Result, *System, error) {
		s, err := NewSystem(cfg)
		if err != nil {
			return nil, nil, err
		}
		res, err := s.Run()
		return res, s, err
	}
	for _, p := range ProtocolNames {
		p := p
		t.Run(p, func(t *testing.T) {
			cfg := smallCfg(p, "apache4x16p")
			cfg.WarmupRefs = 100
			cfg.Trace = true
			cfg.SampleEvery = 500
			res, sys, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantSpans := sys.Tracer.Spans()
			if len(wantSpans) == 0 {
				t.Fatalf("%s: serial run traced no spans", p)
			}
			wantSeries := res.Series
			if wantSeries == nil || len(wantSeries.Samples) == 0 {
				t.Fatalf("%s: serial run sampled no series", p)
			}
			for _, n := range []int{1, 2, 4, 8} {
				cfg.Shards = n
				res, sys, err := run(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", n, err)
				}
				if got := sys.Tracer.Spans(); !reflect.DeepEqual(got, wantSpans) {
					t.Errorf("shards=%d: span trace diverges from serial (%d spans vs %d)",
						n, len(got), len(wantSpans))
				}
				if !reflect.DeepEqual(res.Series, wantSeries) {
					t.Errorf("shards=%d: epoch series diverges from serial", n)
				}
			}
		})
	}
}

// TestShardedOtherWorkloadsAndPlacement spot-checks the gate off the
// default workload: alternative placement, dedup off, a second trace.
func TestShardedOtherWorkloadsAndPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs")
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"alt-placement", func(c *Config) { c.AltPlacement = true }},
		{"dedup-off", func(c *Config) { c.Dedup = false }},
		{"other-seed", func(c *Config) { c.Seed = 99 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg("arin", "apache4x16p")
			tc.mut(&cfg)
			want, _ := runFingerprint(t, cfg)
			cfg.Shards = 4
			got, _ := runFingerprint(t, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("sharded fingerprint diverges from serial")
				diffMaps(t, "counter", got.Counters, want.Counters)
			}
		})
	}
}

// TestShardedValidate pins the Shards bounds check.
func TestShardedValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = -1
	if err := cfg.Validate(); err == nil {
		t.Error("Shards=-1 validated")
	}
	cfg.Shards = cfg.Tiles + 1
	if err := cfg.Validate(); err == nil {
		t.Error("Shards=Tiles+1 validated")
	}
	cfg.Shards = cfg.Tiles
	if err := cfg.Validate(); err != nil {
		t.Errorf("Shards=Tiles rejected: %v", err)
	}
}
