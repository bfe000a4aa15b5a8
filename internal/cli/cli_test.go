package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

func parse(t *testing.T, f *Flags, fs *flag.FlagSet, args ...string) {
	t.Helper()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	f.Finish()
}

func TestSimFlagsBindAndResolve(t *testing.T) {
	cfg := core.DefaultConfig()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := New(fs, &cfg).Sim().Obs().Shards().Workers()
	parse(t, f, fs,
		"-tiles", "16", "-areas", "4", "-refs", "123", "-warmup", "456",
		"-seed", "9", "-alt", "-nodedup", "-unicast-broadcast",
		"-check", "-trace-out", "t.json",
		"-sample", "1000", "-shards", "3", "-parallel", "-workers", "2")
	if cfg.Tiles != 16 || cfg.Areas != 4 || cfg.RefsPerCore != 123 || cfg.WarmupRefs != 456 || cfg.Seed != 9 {
		t.Errorf("sim fields not bound: %+v", cfg)
	}
	if !cfg.AltPlacement || cfg.Dedup || !cfg.Proto.BroadcastUnicast {
		t.Errorf("placement/dedup/broadcast flags not resolved: %+v", cfg)
	}
	if !cfg.Check || !cfg.Trace || cfg.SampleEvery != 1000 {
		t.Errorf("observer flags not resolved: %+v", cfg)
	}
	if cfg.Shards != 3 || !cfg.Parallel {
		t.Errorf("Shards/Parallel = %d/%v, want 3/true", cfg.Shards, cfg.Parallel)
	}
	if f.WorkersN != 2 {
		t.Errorf("WorkersN = %d, want 2", f.WorkersN)
	}
	if f.TraceOut != "t.json" {
		t.Errorf("TraceOut = %q", f.TraceOut)
	}
	// The retired dispatch profiler's flag must not parse.
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	New(fs, &cfg).Sim().Obs()
	if err := fs.Parse([]string{"-profile"}); err == nil {
		t.Error("-profile parsed; want an unknown-flag error")
	}
}

// TestNegativeSampleRejected requires a negative -sample to fail the
// parse with an error naming the flag, leaving sampling off.
func TestNegativeSampleRejected(t *testing.T) {
	cfg := core.DefaultConfig()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	New(fs, &cfg).Sim().Obs()
	err := fs.Parse([]string{"-sample", "-5"})
	if err == nil || !strings.Contains(err.Error(), "-sample") {
		t.Fatalf("-sample -5 parsed with error %v; want an error naming -sample", err)
	}
	if cfg.SampleEvery != 0 {
		t.Errorf("SampleEvery = %d after a rejected -sample, want 0", cfg.SampleEvery)
	}
}

func TestDefaultsComeFromConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.WarmupRefs = 40000
	cfg.Shards, cfg.Parallel = 2, true
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := New(fs, &cfg).Sim().Obs().Shards()
	parse(t, f, fs)
	if cfg.WarmupRefs != 40000 || cfg.Shards != 2 || !cfg.Parallel {
		t.Errorf("pre-seeded defaults lost: %+v", cfg)
	}
	if !cfg.Dedup {
		t.Error("default dedup lost without -nodedup")
	}
	if cfg.Trace || cfg.SampleEvery != 0 {
		t.Errorf("observers armed by default: %+v", cfg)
	}
}

func TestFinishTouchesOnlyBoundGroups(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Dedup = false
	cfg.SampleEvery = 77
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := New(fs, &cfg).Shards()
	parse(t, f, fs, "-shards", "4", "-parallel")
	if cfg.Dedup || cfg.SampleEvery != 77 {
		t.Errorf("unbound groups clobbered: %+v", cfg)
	}
	if cfg.Shards != 4 || !cfg.Parallel {
		t.Errorf("Shards/Parallel = %d/%v, want 4/true", cfg.Shards, cfg.Parallel)
	}
}

func TestChanged(t *testing.T) {
	cfg := core.DefaultConfig()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := New(fs, &cfg).Sim()
	parse(t, f, fs, "-refs", "25000") // explicit, equal to default
	if !Changed(fs, "refs") {
		t.Error("explicit -refs not detected")
	}
	if Changed(fs, "warmup") {
		t.Error("unset -warmup reported as changed")
	}
}
