package exp

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// detConfig is a reduced-but-representative run used by the
// determinism tests: small enough to repeat several times, large
// enough to exercise misses, broadcasts and retries.
func detConfig(protocol string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = protocol
	cfg.Workload = "apache4x16p"
	cfg.RefsPerCore = 1500
	cfg.WarmupRefs = 3000
	return cfg
}

// requireSameResult fails the test if two runs of the same
// configuration diverged in any observable counter.
func requireSameResult(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if a.Cycles != b.Cycles {
		t.Errorf("%s: cycles %d vs %d", label, a.Cycles, b.Cycles)
	}
	if a.Refs != b.Refs {
		t.Errorf("%s: refs %d vs %d", label, a.Refs, b.Refs)
	}
	if a.Events != b.Events {
		t.Errorf("%s: kernel events %d vs %d", label, a.Events, b.Events)
	}
	if a.Profile != b.Profile {
		t.Errorf("%s: miss profiles differ:\n%+v\n%+v", label, a.Profile, b.Profile)
	}
	if a.Net != b.Net {
		t.Errorf("%s: network stats differ:\n%+v\n%+v", label, a.Net, b.Net)
	}
	if a.MemReads != b.MemReads {
		t.Errorf("%s: memory reads %d vs %d", label, a.MemReads, b.MemReads)
	}
	if a.DedupSavings != b.DedupSavings {
		t.Errorf("%s: dedup savings %v vs %v", label, a.DedupSavings, b.DedupSavings)
	}
	an, bn := a.Counters.Names(), b.Counters.Names()
	if !reflect.DeepEqual(an, bn) {
		t.Errorf("%s: counter name sets differ: %v vs %v", label, an, bn)
		return
	}
	for _, name := range an {
		if av, bv := a.Counters.Value(name), b.Counters.Value(name); av != bv {
			t.Errorf("%s: counter %s = %d vs %d", label, name, av, bv)
		}
	}
}

// TestRunDeterminism runs the same configuration twice per protocol
// and requires every observable counter to match: the event kernel's
// (time, sequence) ordering makes whole runs bit-for-bit reproducible.
func TestRunDeterminism(t *testing.T) {
	for _, p := range core.ProtocolNames {
		cfg := detConfig(p)
		a, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s: first run: %v", p, err)
		}
		b, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s: second run: %v", p, err)
		}
		requireSameResult(t, p, a, b)
	}
}

// TestSerialParallelEquivalence runs the same small sweep serially and
// with the bounded worker pool and requires identical results and
// byte-identical rendered figures: parallelism must not change a
// single counter.
func TestSerialParallelEquivalence(t *testing.T) {
	opt := DefaultOptions()
	opt.Workloads = []string{"apache4x16p", "tomcatv4x16p"}
	opt.Base.RefsPerCore = 1500
	opt.Base.WarmupRefs = 3000

	opt.Workers = 1
	var serialOrder []string
	serial, err := Run(opt, func(wl, p string) { serialOrder = append(serialOrder, wl+"/"+p) })
	if err != nil {
		t.Fatal(err)
	}

	opt.Workers = 4
	var parallelOrder []string
	parallel, err := Run(opt, func(wl, p string) { parallelOrder = append(parallelOrder, wl+"/"+p) })
	if err != nil {
		t.Fatal(err)
	}

	// The progress callback fires in matrix order in both modes.
	if !reflect.DeepEqual(serialOrder, parallelOrder) {
		t.Errorf("progress order differs:\nserial:   %v\nparallel: %v", serialOrder, parallelOrder)
	}
	for _, wl := range opt.Workloads {
		for _, p := range core.ProtocolNames {
			requireSameResult(t, wl+"/"+p, serial.Results[wl][p], parallel.Results[wl][p])
		}
	}
	for name, render := range map[string]func(*Matrix) string{
		"figure7":  func(m *Matrix) string { return m.Figure7().String() },
		"figure8a": func(m *Matrix) string { return m.Figure8a().String() },
		"figure8b": func(m *Matrix) string { return m.Figure8b().String() },
		"figure9a": func(m *Matrix) string { return m.Figure9a().String() },
		"figure9b": func(m *Matrix) string { return m.Figure9b().String() },
		"hops":     func(m *Matrix) string { return m.LinkAnalysis().String() },
	} {
		if s, p := render(serial), render(parallel); s != p {
			t.Errorf("%s differs between serial and parallel sweep:\n--- serial\n%s\n--- parallel\n%s", name, s, p)
		}
	}
}

// TestRunConfigsMatchesRun checks the worker pool against individual
// serial runs: progress reports come in slice order and every slot's
// built system is the one its configuration asked for.
func TestRunConfigsMatchesRun(t *testing.T) {
	var cfgs []core.Config
	for _, p := range core.ProtocolNames {
		cfgs = append(cfgs, detConfig(p))
	}
	var order []int
	systems := make([]*core.System, len(cfgs))
	pooled, err := RunConfigs(cfgs, 4,
		func(i int) { order = append(order, i) },
		func(i int, s *core.System) { systems[i] = s })
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Errorf("progress order %v, want %v", order, want)
	}
	for i, cfg := range cfgs {
		if systems[i] == nil || systems[i].Cfg != cfg {
			t.Errorf("slot %d: built system does not carry config %d", i, i)
		}
		solo, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, cfg.Protocol, solo, pooled[i])
	}
}

// TestTelemetryNonPerturbing runs each protocol with causal tracing
// and epoch sampling off and on and requires every observable to be
// bit-identical. Neither the tracer nor the sampler schedules an
// event, so both event streams are identical down to the kernel event
// count.
func TestTelemetryNonPerturbing(t *testing.T) {
	for _, p := range core.ProtocolNames {
		plain, err := core.Run(detConfig(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}

		cfg := detConfig(p)
		cfg.Trace = true
		traced, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", p, err)
		}
		traced.Config.Trace = false
		requireSameResult(t, p+" traced-vs-plain", plain, traced)

		cfg = detConfig(p)
		cfg.SampleEvery = 2000
		sampled, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s sampled: %v", p, err)
		}
		if sampled.Series == nil || len(sampled.Series.Samples) == 0 {
			t.Fatalf("%s: sampling produced no series", p)
		}
		// Mask the config difference; every simulation observable,
		// the event count included, must match.
		sampled.Config.SampleEvery = 0
		sampled.Series = nil
		requireSameResult(t, p+" sampled-vs-plain", plain, sampled)
		if plain.Series != nil {
			t.Errorf("%s: unsampled run unexpectedly carries a series", p)
		}

		// Per-VM attribution routes hot-path charges through per-VM
		// banks and folds them back at measure end: the globals — and
		// every other observable, events included — must be bit-identical
		// to the unattributed run.
		cfg = detConfig(p)
		cfg.PerVM = true
		attributed, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s pervm: %v", p, err)
		}
		if len(attributed.PerVM) == 0 {
			t.Fatalf("%s: per-VM run carries no attribution", p)
		}
		requireSameResult(t, p+" pervm-vs-plain", plain, attributed)
		var vmRefs uint64
		for i := range attributed.PerVM {
			v := &attributed.PerVM[i]
			vmRefs += v.Refs
			// The attribution is a slice of the globals: no per-VM bank
			// may exceed what the whole run counted.
			for _, name := range v.Counters.Names() {
				if bv, gv := v.Counters.Value(name), attributed.Counters.Value(name); bv > gv {
					t.Errorf("%s: VM %d counter %s = %d exceeds run total %d", p, v.VM, name, bv, gv)
				}
			}
		}
		if vmRefs != attributed.Refs {
			t.Errorf("%s: per-VM refs sum to %d, want %d (every tile belongs to a VM)", p, vmRefs, attributed.Refs)
		}
		if plain.PerVM != nil {
			t.Errorf("%s: plain run unexpectedly carries per-VM data", p)
		}
	}
}
