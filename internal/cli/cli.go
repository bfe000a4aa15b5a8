// Package cli centralizes the command-line surface shared by the
// cmd/* tools. Every tool that drives simulations binds the same flag
// names, defaults and help texts onto its flag set from here, so
// `-seed`, `-check` or `-shards` mean exactly the same thing in
// cmpsim and experiments, and a new simulation knob becomes a flag in
// every tool by touching one file.
package cli

import (
	"flag"

	"repro/internal/core"
)

// Flags binds groups of shared flags onto one flag.FlagSet, writing
// into one core.Config. Call the group methods (Sim, Obs, Shards,
// Workers) before fs.Parse and Finish after it; the config then holds
// the fully resolved values.
type Flags struct {
	fs  *flag.FlagSet
	cfg *core.Config

	// WorkersN is the parsed -workers value (registered by Workers).
	WorkersN int
	// TraceOut is the parsed -trace-out path (registered by Obs);
	// non-empty arms Config.Trace.
	TraceOut string

	nodedup  bool
	simBound bool
	obsBound bool
}

// New prepares a binder for fs that writes into cfg. The config's
// current field values become the flag defaults, so tools seed their
// own defaults by setting cfg before binding.
func New(fs *flag.FlagSet, cfg *core.Config) *Flags {
	return &Flags{fs: fs, cfg: cfg}
}

// Sim registers the simulation-shaping flags: what chip to build and
// how much work to run through it.
func (f *Flags) Sim() *Flags {
	cfg, fs := f.cfg, f.fs
	f.simBound = true
	fs.IntVar(&cfg.Tiles, "tiles", cfg.Tiles, "number of tiles")
	fs.IntVar(&cfg.Areas, "areas", cfg.Areas, "number of static areas")
	fs.IntVar(&cfg.RefsPerCore, "refs", cfg.RefsPerCore, "measured references per core")
	fs.IntVar(&cfg.WarmupRefs, "warmup", cfg.WarmupRefs, "warmup references per core (discarded)")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed")
	fs.BoolVar(&cfg.AltPlacement, "alt", cfg.AltPlacement, "use the Figure 6 alternative VM placement")
	fs.BoolVar(&f.nodedup, "nodedup", !cfg.Dedup, "disable memory deduplication")
	fs.BoolVar(&cfg.Proto.BroadcastUnicast, "unicast-broadcast", cfg.Proto.BroadcastUnicast,
		"emulate a chip without hardware broadcast")
	return f
}

// Obs registers the observation flags: checkers, tracing, time-series
// sampling and per-VM attribution. All are bit-identical observers —
// they never change simulation results.
func (f *Flags) Obs() *Flags {
	cfg, fs := f.cfg, f.fs
	f.obsBound = true
	fs.BoolVar(&cfg.Check, "check", cfg.Check,
		"attach the shadow-memory coherence checker and check the engine invariants after the run (fails the run on any violation; every run fails on a stalled transaction)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"trace every coherence transaction and write Chrome/Perfetto trace-event JSON to this file (open in ui.perfetto.dev)")
	fs.Uint64Var((*uint64)(&cfg.SampleEvery), "sample", uint64(cfg.SampleEvery),
		"record a time-series sample of all counters every N cycles (0 = off)")
	fs.BoolVar(&cfg.PerVM, "pervm", cfg.PerVM,
		"attribute power counters, network energy and miss latency to the requesting VM (per-VM banks folded into the globals at measure end)")
	return f
}

// Shards registers the -shards and -parallel flags: the executor
// selector (DESIGN.md §13). Separate from Sim because the executor never
// changes results, only how the run executes.
func (f *Flags) Shards() *Flags {
	f.fs.IntVar(&f.cfg.Shards, "shards", f.cfg.Shards,
		"with -parallel: partition the mesh into N contiguous tile shards, each on its own kernel lane (0 = the single serial kernel; results are bit-identical)")
	f.fs.BoolVar(&f.cfg.Parallel, "parallel", f.cfg.Parallel,
		"run the -shards N lanes concurrently in conservative lookahead windows (set together with -shards; results stay bit-identical; runs on the serial kernel when hub-resident observability is armed)")
	return f
}

// Workers registers the -workers flag bounding concurrent
// simulations; read the value from WorkersN after parse.
func (f *Flags) Workers() *Flags {
	f.fs.IntVar(&f.WorkersN, "workers", 0, "parallel simulations (0 = all CPUs, 1 = serial)")
	return f
}

// Finish resolves the inverted and derived flags after fs.Parse:
// -nodedup into Config.Dedup, and a non-empty -trace-out arms
// Config.Trace. Only groups that were bound
// are resolved, so unbound config fields stay untouched.
func (f *Flags) Finish() {
	if f.simBound {
		f.cfg.Dedup = !f.nodedup
	}
	if f.obsBound && f.TraceOut != "" {
		f.cfg.Trace = true
	}
}

// Changed reports whether the named flag was set explicitly on the
// command line — for tools whose convenience flags (e.g. -quick) must
// yield to an explicit value.
func Changed(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			set = true
		}
	})
	return set
}
