package core

import (
	"strings"
	"testing"
)

// TestValidateCatchesBadConfigs drives every Validate check and
// requires each error to name the offending value and the valid
// choices — the errors are user-facing via cmd/cmpsim.
func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   []string // substrings the error must contain
	}{
		{"unknown protocol", func(c *Config) { c.Protocol = "mesi" },
			[]string{`"mesi"`, "directory", "dico", "providers", "arin"}},
		{"unknown workload", func(c *Config) { c.Workload = "nginx" },
			[]string{`"nginx"`, "apache4x16p", "mixed-sci"}},
		{"non-square tiles", func(c *Config) { c.Tiles = 32 },
			[]string{"32", "square"}},
		{"negative tiles", func(c *Config) { c.Tiles = -4 },
			[]string{"positive"}},
		{"areas do not divide", func(c *Config) { c.Areas = 3 },
			[]string{"3", "64", "divide"}},
		{"zero areas", func(c *Config) { c.Areas = 0 },
			[]string{"positive"}},
		{"zero refs", func(c *Config) { c.RefsPerCore = 0 },
			[]string{"RefsPerCore"}},
		{"negative warmup", func(c *Config) { c.WarmupRefs = -1 },
			[]string{"WarmupRefs"}},
		{"providers over the area limit", func(c *Config) { c.Protocol, c.Areas = "providers", 16 },
			[]string{"16", "providers", "limit of 8"}},
		{"arin over the area limit", func(c *Config) { c.Protocol, c.Areas = "arin", 64 },
			[]string{"64", "arin", "limit of 8"}},
		{"L1 short of the address bound", func(c *Config) { c.Proto.L1Sets = 64 },
			[]string{"L1", "64 sets of 4 ways", "MaxAddr"}},
		{"coherence cache short of the address bound", func(c *Config) { c.Proto.CCWays = 64 },
			[]string{"coherence cache", "512 sets of 64 ways", "MaxAddr"}},
		{"L2 sets not a power of two", func(c *Config) { c.Proto.L2Sets = 1000 },
			[]string{"L2", "1000", "power of two"}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}

// TestValidateAcceptsDefaults checks the paper configurations pass.
func TestValidateAcceptsDefaults(t *testing.T) {
	for _, p := range ProtocolNames {
		cfg := DefaultConfig()
		cfg.Protocol = p
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: default config rejected: %v", p, err)
		}
	}
	cfg := DefaultConfig()
	cfg.Tiles, cfg.Areas = 16, 4
	if err := cfg.Validate(); err != nil {
		t.Errorf("16-tile config rejected: %v", err)
	}
	// The directory and DiCo ignore Areas, so any tiling passes.
	for _, p := range []string{"directory", "dico"} {
		cfg := DefaultConfig()
		cfg.Protocol, cfg.Areas = p, 64
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s with 64 areas rejected: %v", p, err)
		}
	}
}

// TestRunValidates requires core.Run to fail fast on a bad config
// instead of dying inside construction.
func TestRunValidates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "token"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Errorf("Run did not surface the validation error, got: %v", err)
	}
}
