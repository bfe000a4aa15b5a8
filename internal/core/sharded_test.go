package core

import (
	"fmt"
	"reflect"
	"strings"
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

// TestShardedMatchesSerialAllProtocols covers the partitions the
// power-of-two sweep of TestParallelMatchesSerialAllProtocols does not:
// shard counts that do not divide the 64 tiles, so bands differ in size
// and band boundaries fall mid-row, up to one lane per tile. Every
// engine must still reproduce the serial fingerprint exactly.
func TestShardedMatchesSerialAllProtocols(t *testing.T) {
	shardCounts := []int{3, 7, 64}
	if testing.Short() {
		shardCounts = []int{3}
	}
	for _, p := range ProtocolNames {
		p := p
		t.Run(p, func(t *testing.T) {
			cfg := smallCfg(p, "apache4x16p")
			cfg.WarmupRefs = 100
			want, _ := runFingerprint(t, cfg)
			for _, n := range shardCounts {
				cfg.Shards, cfg.Parallel = n, true
				got, res := runFingerprint(t, cfg)
				if res.Executor != "parallel" {
					t.Fatalf("shards=%d: executor = %q, want parallel", n, res.Executor)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d fingerprint diverges from serial", n)
					diffMaps(t, fmt.Sprintf("shards=%d counter", n), got.Counters, want.Counters)
					diffMaps(t, fmt.Sprintf("shards=%d net", n), got.Net, want.Net)
					diffMaps(t, fmt.Sprintf("shards=%d miss_profile", n), got.Profile, want.Profile)
				}
			}
		})
	}
}

// TestShardedMatchesSerialWithObservers ties the two executors together
// across the observer fallback: a -parallel config with an observer
// armed runs on the serial kernel, and its architectural fingerprint
// must equal the unobserved run of the same config on RunParallel. An
// observer that perturbed the simulation, or a parallel path that
// drifted from the serial order, would break the equality. The event
// count is compared too: no observer schedules a kernel event.
func TestShardedMatchesSerialWithObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("many full runs")
	}
	mk := func() Config {
		cfg := smallCfg("providers", "apache4x16p")
		cfg.WarmupRefs = 100
		cfg.Shards, cfg.Parallel = 3, true
		return cfg
	}
	want, wres := runFingerprint(t, mk())
	if wres.Executor != "parallel" {
		t.Fatalf("unobserved executor = %q, want parallel", wres.Executor)
	}
	combos := []struct {
		name string
		arm  func(*Config)
	}{
		{"check", func(c *Config) { c.Check = true }},
		{"sample", func(c *Config) { c.SampleEvery = 500 }},
		{"trace", func(c *Config) { c.Trace = true }},
		{"pervm", func(c *Config) { c.PerVM = true }},
		{"all", func(c *Config) {
			c.Check, c.Trace, c.PerVM = true, true, true
			c.SampleEvery = 500
		}},
	}
	for _, c := range combos {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := mk()
			c.arm(&cfg)
			got, gres := runFingerprint(t, cfg)
			if gres.Executor != "serial" {
				t.Fatalf("observed executor = %q, want serial", gres.Executor)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("observed serial fingerprint diverges from the parallel run")
				diffMaps(t, "counter", got.Counters, want.Counters)
				diffMaps(t, "net", got.Net, want.Net)
				diffMaps(t, "miss_profile", got.Profile, want.Profile)
				if got.Cycles != want.Cycles || got.MemReads != want.MemReads {
					t.Errorf("cycles/mem_reads = %d/%d, want %d/%d",
						got.Cycles, got.MemReads, want.Cycles, want.MemReads)
				}
			}
		})
	}
}

// TestShardedTelemetryInvariant pins the telemetry fallback for every
// engine: a traced and sampled -parallel config runs on the serial
// kernel, so its span trace and epoch series deep-equal the Shards: 0
// run's whatever shard count was asked for.
func TestShardedTelemetryInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("many full runs")
	}
	run := func(cfg Config) (*Result, *System) {
		t.Helper()
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", cfg.Shards, err)
		}
		return res, s
	}
	for _, p := range ProtocolNames {
		p := p
		t.Run(p, func(t *testing.T) {
			cfg := smallCfg(p, "apache4x16p")
			cfg.WarmupRefs = 100
			cfg.Trace = true
			cfg.SampleEvery = 500
			res, sys := run(cfg)
			wantSpans, wantSeries := sys.Tracer.Spans(), res.Series
			if len(wantSpans) == 0 || wantSeries == nil || len(wantSeries.Samples) == 0 {
				t.Fatalf("serial run traced %d spans, sampled %v", len(wantSpans), wantSeries)
			}
			for _, n := range []int{2, 8} {
				cfg.Shards, cfg.Parallel = n, true
				res, sys := run(cfg)
				if res.Executor != "serial" {
					t.Fatalf("shards=%d: executor = %q, want serial", n, res.Executor)
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

// TestShardedOtherWorkloadsAndPlacement spot-checks the parallel gate
// off the default configuration: alternative placement, dedup off, a
// second seed.
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
			cfg.Shards, cfg.Parallel = 4, true
			got, res := runFingerprint(t, cfg)
			if res.Executor != "parallel" {
				t.Fatalf("executor = %q, want parallel", res.Executor)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parallel fingerprint diverges from serial")
				diffMaps(t, "counter", got.Counters, want.Counters)
			}
		})
	}
}

// TestShardedValidate pins the Shards bounds check and the
// Shards/Parallel pairing.
func TestShardedValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallel = true
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
	cfg.Parallel = false
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Parallel") {
		t.Errorf("Shards without Parallel: err = %v, want a Shards/Parallel error", err)
	}
}
