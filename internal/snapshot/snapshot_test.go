package snapshot

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// testConfig is the crosscheck-scale configuration: big enough to
// exercise evictions, recalls and dedup, small enough for CI.
func testConfig(protocol string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = protocol
	cfg.RefsPerCore = 400
	cfg.WarmupRefs = 800
	return cfg
}

// fingerprint reduces a Result to its deterministic architectural
// content (wall-clock data excluded).
func fingerprint(res *core.Result) map[string]uint64 {
	fp := map[string]uint64{
		"cycles":    uint64(res.Cycles),
		"refs":      res.Refs,
		"events":    res.Events,
		"mem_reads": res.MemReads,
	}
	for _, name := range res.Counters.Names() {
		fp["counter:"+name] = res.Counters.Value(name)
	}
	rv := reflect.ValueOf(res.Net)
	for i := 0; i < rv.NumField(); i++ {
		fp["net:"+rv.Type().Field(i).Name] = rv.Field(i).Uint()
	}
	pv := reflect.ValueOf(res.Profile)
	for i := 0; i < pv.NumField(); i++ {
		f := pv.Field(i)
		name := pv.Type().Field(i).Name
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				fp[fmt.Sprintf("profile:%s[%d]", name, j)] = f.Index(j).Uint()
			}
			continue
		}
		fp["profile:"+name] = f.Uint()
	}
	return fp
}

// runFork executes the warmup under the warmup-normalized config,
// captures, round-trips the snapshot through gob, forks under the full
// config and measures.
func runFork(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	warmCfg := WarmupConfig(cfg)
	warmCfg.RefsPerCore = cfg.RefsPerCore // irrelevant to warmup, required by Validate
	ws, err := core.NewSystem(warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	st, err := Capture(ws)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the wire format so serialization fidelity is
	// part of every differential, not a separate hope.
	raw, err := Bytes(st)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Fork(st2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fs.RunMeasure()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func diffFingerprints(t *testing.T, label string, straight, forked map[string]uint64) {
	t.Helper()
	for k, v := range straight {
		if fv, ok := forked[k]; !ok || fv != v {
			t.Errorf("%s: %s = %d straight, %d forked", label, k, v, forked[k])
		}
	}
	for k := range forked {
		if _, ok := straight[k]; !ok {
			t.Errorf("%s: forked-only key %s", label, k)
		}
	}
}

// TestForkMatchesStraight is the non-negotiable invariant of the
// snapshot subsystem: a measure phase forked from a captured warmup
// must be bit-identical to a straight-through run, for every engine.
// Any divergence is a latent hidden-state bug.
func TestForkMatchesStraight(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full protocol runs")
	}
	for _, p := range core.ProtocolNames {
		p := p
		t.Run(p, func(t *testing.T) {
			cfg := testConfig(p)
			straight, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			forked := runFork(t, cfg)
			diffFingerprints(t, p, fingerprint(straight), fingerprint(forked))
		})
	}
}

// TestForkMatchesStraightObserved repeats the differential with the
// observation subsystems on: the shadow checker + stall watchdog, the
// telemetry sampler, and the transaction tracer. All are documented as
// bit-identical observers, and a fork must preserve that.
func TestForkMatchesStraightObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs")
	}
	for _, p := range core.ProtocolNames {
		p := p
		t.Run(p, func(t *testing.T) {
			cfg := testConfig(p)
			cfg.Check = true
			cfg.Trace = true
			cfg.SampleEvery = 500
			straight, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			forked := runFork(t, cfg)
			diffFingerprints(t, p, fingerprint(straight), fingerprint(forked))
			if forked.Series == nil || len(forked.Series.Samples) == 0 {
				t.Error("forked run with SampleEvery produced no telemetry series")
			}
		})
	}
}

// TestOneWarmupManyForks shares one captured warmup across several
// measure configurations, as the experiment runner does, and checks
// each against its straight-through twin. Restoring must deep-copy:
// an earlier fork's measure phase must not perturb a later fork.
func TestOneWarmupManyForks(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs")
	}
	base := testConfig("providers")
	warmCfg := WarmupConfig(base)
	warmCfg.RefsPerCore = base.RefsPerCore
	ws, err := core.NewSystem(warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	st, err := Capture(ws)
	if err != nil {
		t.Fatal(err)
	}
	variants := []func(*core.Config){
		func(c *core.Config) {},
		func(c *core.Config) { c.RefsPerCore = 200 },
		func(c *core.Config) { c.Check = true },
	}
	for i, mutate := range variants {
		cfg := base
		mutate(&cfg)
		straight, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := Fork(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := fs.RunMeasure()
		if err != nil {
			t.Fatal(err)
		}
		diffFingerprints(t, fmt.Sprintf("variant %d", i), fingerprint(straight), fingerprint(forked))
	}
}

// TestCaptureRequiresQuiescence: capturing a system with events still
// queued must fail, not silently drop them.
func TestCaptureRequiresQuiescence(t *testing.T) {
	cfg := testConfig("directory")
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Kernel.After(5, func() {})
	if _, err := Capture(s); err == nil {
		t.Fatal("capture of a non-quiescent kernel succeeded")
	}
}

// TestForkRejectsForeignConfig: a fork whose warmup-relevant config
// differs from the snapshot's must be refused.
func TestForkRejectsForeignConfig(t *testing.T) {
	cfg := testConfig("directory")
	cfg.WarmupRefs = 50
	cfg.RefsPerCore = 50
	ws, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	st, err := Capture(ws)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = cfg.Seed + 1
	if _, err := Fork(st, bad); err == nil {
		t.Fatal("fork under a different seed succeeded")
	}
	bad = cfg
	bad.Protocol = "dico"
	if _, err := Fork(st, bad); err == nil {
		t.Fatal("fork under a different protocol succeeded")
	}
	// Measure-phase knobs may differ.
	ok := cfg
	ok.RefsPerCore = 25
	ok.Check = true
	if _, err := Fork(st, ok); err != nil {
		t.Fatalf("fork with different measure knobs failed: %v", err)
	}
}

// TestWatchdogRearmsAfterFork: the stall watchdog must re-arm inside a
// forked measure phase — a fork that silently lost its watchdog would
// hang instead of failing loudly on a livelock.
func TestWatchdogRearmsAfterFork(t *testing.T) {
	cfg := testConfig("directory")
	cfg.WarmupRefs = 50
	cfg.RefsPerCore = 50
	cfg.Check = true
	ws, err := core.NewSystem(WarmupConfig(cfg))
	if err == nil && ws.Dog != nil {
		t.Fatal("warmup-normalized config unexpectedly built a watchdog")
	}
	ws, err = core.NewSystem(func() core.Config { c := WarmupConfig(cfg); c.RefsPerCore = cfg.RefsPerCore; return c }())
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	st, err := Capture(ws)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Fork(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Dog == nil {
		t.Fatal("forked system with Check has no watchdog")
	}
	if _, err := fs.RunMeasure(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Dog.Err(); err != nil {
		t.Fatalf("watchdog tripped on a healthy forked run: %v", err)
	}
}

// TestForkAcrossExecutors pins the executor-agnosticism of the
// snapshot surface: one serial warmup forks into a RunParallel measure
// phase (and a RunParallel warmup forks into a serial measure), all
// bit-identical to the straight-through serial run. WarmupConfig
// normalizes Shards and Parallel away, so the snapshots are
// interchangeable by construction — this test proves the captured
// state really is.
func TestForkAcrossExecutors(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol runs")
	}
	cfg := testConfig("dico")
	straight, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(straight)

	// Serial warmup -> RunParallel measure (runFork warms up under the
	// normalized config, which is serial; the fork config asks for the
	// concurrent window executor; the snapshot must not care).
	parCfg := cfg
	parCfg.Shards = 4
	parCfg.Parallel = true
	parRes := runFork(t, parCfg)
	if parRes.Executor != "parallel" {
		t.Fatalf("serial-warmup/parallel-measure: executor = %q, want parallel", parRes.Executor)
	}
	diffFingerprints(t, "serial-warmup/parallel-measure", want, fingerprint(parRes))

	// RunParallel warmup -> serial measure: capture from a warmed-up
	// system on the parallel executor, round-trip the wire format, fork
	// into a plain serial measure phase.
	warmCfg := WarmupConfig(cfg)
	warmCfg.RefsPerCore = cfg.RefsPerCore
	warmCfg.Shards, warmCfg.Parallel = 3, true
	ws, err := core.NewSystem(warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	st, err := Capture(ws)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Bytes(st)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Fork(st2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fs.RunMeasure()
	if err != nil {
		t.Fatal(err)
	}
	diffFingerprints(t, "parallel-warmup/serial-measure", want, fingerprint(res))
}

// TestForkRejectsMalformedState mutates a captured state the way a
// truncated or hand-edited snapshot would: each missing section, an
// out-of-range sampler or generator cursor and a page table other than
// the one the config builds must make Fork return an error, not panic
// during the restore, in a later Series call or mid-run.
func TestForkRejectsMalformedState(t *testing.T) {
	cfg := testConfig("dico")
	cfg.WarmupRefs = 50
	cfg.RefsPerCore = 50
	cfg.SampleEvery = 500
	ws, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.RunWarmup(); err != nil {
		t.Fatal(err)
	}
	st, err := Capture(ws)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sampler == nil {
		t.Fatal("captured state carries no sampler")
	}
	if _, err := Fork(st, cfg); err != nil {
		t.Fatalf("unmutated state: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(*State)
	}{
		{"nil-net", func(s *State) { s.Net = nil }},
		{"nil-mapper", func(s *State) { s.Mapper = nil }},
		{"nil-gen", func(s *State) { s.Gen = nil }},
		{"nil-engine", func(s *State) { s.Engine = nil }},
		{"ring-off-past-samples", func(s *State) {
			smp := *s.Sampler
			smp.RingOff = 1 << 20
			s.Sampler = &smp
		}},
		{"gen-class", cursor(func(c *workload.CoreCursor) { c.Class = 3 })},
		{"gen-negative-class", cursor(func(c *workload.CoreCursor) { c.Class = -1 })},
		{"gen-page-past-class", cursor(func(c *workload.CoreCursor) { c.Class, c.Page = 2, 1<<20 })},
		{"gen-block", cursor(func(c *workload.CoreCursor) { c.Block = memctrl.BlocksPerPage })},
		{"gen-burst", cursor(func(c *workload.CoreCursor) { c.Burst = 1 << 20 })},
		{"gen-repeat", cursor(func(c *workload.CoreCursor) { c.Repeat = -1 })},
		{"mapper-page-table", func(s *State) {
			mp := *s.Mapper
			mp.Private = append([]memctrl.PageEntry(nil), mp.Private...)
			mp.Private[len(mp.Private)-1].Phys++
			s.Mapper = &mp
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			bad := *st
			m.mutate(&bad)
			fs, err := Fork(&bad, cfg)
			if err == nil {
				fs.Sampler.Series()
				t.Fatal("fork of a malformed state succeeded")
			}
		})
	}
}

// cursor returns a mutation of the last core's generator cursor that
// leaves the captured state itself untouched.
func cursor(f func(*workload.CoreCursor)) func(*State) {
	return func(s *State) {
		gen := *s.Gen
		gen.Cores = append([]workload.CoreCursor(nil), gen.Cores...)
		f(&gen.Cores[len(gen.Cores)-1])
		s.Gen = &gen
	}
}

// TestPhaseStats pins the always-on phase timing: a straight run
// reports warmup then measure, the measure stat agrees with the
// Result on refs and kernel events, both executors report the same
// simulated phases, and a fork reports only the measure phase it ran
// itself.
func TestPhaseStats(t *testing.T) {
	requireMeasure := func(t *testing.T, ph core.PhaseStat, res *core.Result) {
		t.Helper()
		if ph.Name != "measure" || ph.Refs != res.Refs || ph.Events != res.Events {
			t.Errorf("measure stat %+v, want refs %d events %d", ph, res.Refs, res.Events)
		}
		if ph.Cycles == 0 || ph.WallNS <= 0 {
			t.Errorf("measure stat %+v has no cycles or wall time", ph)
		}
	}
	var serial []core.PhaseStat
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig("directory")
			cfg.Shards, cfg.Parallel = shards, shards > 0
			s, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			phases := s.Phases()
			if len(phases) != 2 || phases[0].Name != "warmup" {
				t.Fatalf("phases = %+v, want warmup then measure", phases)
			}
			if want := uint64(cfg.WarmupRefs * cfg.Tiles); phases[0].Refs != want {
				t.Errorf("warmup refs = %d, want %d", phases[0].Refs, want)
			}
			requireMeasure(t, phases[1], res)
			// Both executors retire the same refs with the same events.
			// Wall clock is host data, and the parallel clock stops at
			// the end of its last window rather than at its last event.
			sim := append([]core.PhaseStat(nil), phases...)
			for i := range sim {
				sim[i].WallNS, sim[i].Cycles = 0, 0
			}
			if shards == 0 {
				serial = sim
			} else if !reflect.DeepEqual(sim, serial) {
				t.Errorf("parallel phases %+v, serial %+v", sim, serial)
			}
		})
	}
	t.Run("fork", func(t *testing.T) {
		cfg := testConfig("directory")
		ws, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.RunWarmup(); err != nil {
			t.Fatal(err)
		}
		st, err := Capture(ws)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := Fork(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fs.RunMeasure()
		if err != nil {
			t.Fatal(err)
		}
		phases := fs.Phases()
		if len(phases) != 1 {
			t.Fatalf("fork phases = %+v, want measure only", phases)
		}
		requireMeasure(t, phases[0], res)
	})
}
