package core

import (
	"testing"

	"repro/internal/power"
)

func smallCfg(protocol, wl string) Config {
	cfg := DefaultConfig()
	cfg.Protocol = protocol
	cfg.Workload = wl
	cfg.RefsPerCore = 300
	return cfg
}

func TestRunAllProtocolsSmoke(t *testing.T) {
	for _, p := range ProtocolNames {
		p := p
		t.Run(p, func(t *testing.T) {
			s, err := NewSystem(smallCfg(p, "apache4x16p"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			s.CheckInvariants()
			if res.Refs != 64*300 {
				t.Errorf("retired %d refs, want %d", res.Refs, 64*300)
			}
			if res.Cycles == 0 {
				t.Error("zero cycles")
			}
			if res.Profile.TotalMisses() == 0 {
				t.Error("no misses recorded")
			}
			if res.Breakdown.Total() <= 0 {
				t.Error("no dynamic energy accounted")
			}
			if res.Counters.Value(power.EvL1TagRead) == 0 {
				t.Error("no L1 tag activity")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallCfg("providers", "lu4x16p"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg("providers", "lu4x16p"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Refs != b.Refs {
		t.Errorf("same seed diverged: %d/%d vs %d/%d cycles/refs", a.Cycles, a.Refs, b.Cycles, b.Refs)
	}
	if a.Net.FlitLinkCrossing != b.Net.FlitLinkCrossing {
		t.Error("network traffic diverged across identical runs")
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	cfg := smallCfg("dico", "radix4x16p")
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles && a.Net.FlitLinkCrossing == b.Net.FlitLinkCrossing {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestAltPlacementRuns(t *testing.T) {
	cfg := smallCfg("arin", "apache4x16p")
	cfg.AltPlacement = true
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Placement.SpansAreas(s.Areas, 0) {
		t.Fatal("alt placement does not span areas")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.CheckInvariants()
}

func TestDedupOffRuns(t *testing.T) {
	cfg := smallCfg("providers", "apache4x16p")
	cfg.Dedup = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DedupSavings != 0 {
		t.Errorf("dedup off but savings %.3f", res.DedupSavings)
	}
}

// TestBadConfigs requires NewSystem to reject bad configurations with
// an error, including the ones that used to panic deep inside
// construction (topo.SquareGrid, topo.Partition).
func TestBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown protocol", func(c *Config) { c.Protocol = "mosi" }},
		{"unknown workload", func(c *Config) { c.Workload = "quake" }},
		{"non-dividing area count", func(c *Config) { c.Areas = 3 }},
		{"zero tiles", func(c *Config) { c.Tiles = 0 }},
		{"more shards than tiles", func(c *Config) { c.Shards, c.Parallel = c.Tiles+1, true }},
		{"shards without parallel", func(c *Config) { c.Shards = 2 }},
		{"parallel without shards", func(c *Config) { c.Parallel = true }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestPerformanceAndPowerAccessors(t *testing.T) {
	res, err := Run(smallCfg("directory", "tomcatv4x16p"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Performance() <= 0 {
		t.Error("non-positive performance")
	}
	if res.PowerPerCycle() <= 0 {
		t.Error("non-positive power")
	}
	if diff := res.CachePowerPerCycle() + res.NetworkPowerPerCycle() - res.PowerPerCycle(); diff > 1e-9 || diff < -1e-9 {
		t.Error("power shares do not sum")
	}
	if res.L2MissRatio() < 0 || res.L2MissRatio() > 1 {
		t.Errorf("L2MissRatio = %v out of range", res.L2MissRatio())
	}
}

// TestPredictionWorks: the DiCo-family engines must resolve a healthy
// share of misses through prediction on a workload with reuse.
func TestPredictionWorks(t *testing.T) {
	for _, p := range []string{"dico", "providers", "arin"} {
		cfg := smallCfg(p, "apache4x16p")
		cfg.WarmupRefs = 4000
		cfg.RefsPerCore = 1500
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr := res.Profile
		predicted := pr.Count[0] + pr.Count[1] + pr.Count[2] // pred-owner/provider/fail
		if predicted == 0 {
			t.Errorf("%s: no predicted misses at all", p)
		}
	}
}

// TestNoPredictionAblation: with the L1C$ disabled, the DiCo engines
// must record zero predicted misses but still run correctly.
func TestNoPredictionAblation(t *testing.T) {
	cfg := smallCfg("dico", "apache4x16p")
	cfg.WarmupRefs = 3000
	cfg.RefsPerCore = 1500
	cfg.Proto.NoPrediction = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Profile
	// Owner-local write upgrades are classified pred-owner with zero
	// links; true L1C$ predictions would show pred-fail events and
	// links on the pred classes.
	if pr.Count[2] != 0 {
		t.Errorf("prediction disabled but %d mispredictions recorded", pr.Count[2])
	}
	if pr.Links[0]+pr.Links[1] != 0 {
		t.Errorf("prediction disabled but predicted misses traversed links")
	}
	if pr.TotalMisses() == 0 {
		t.Error("no misses at all")
	}
}
