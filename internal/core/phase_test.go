package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/proto"
)

// TestWarmupBoundaryQuiescent pins the state RunWarmup leaves behind:
// the kernel queue is drained and no tile holds a transaction record or
// an MSHR entry. A record that survives the drain is hidden transient
// state the measure phase would silently inherit.
func TestWarmupBoundaryQuiescent(t *testing.T) {
	for _, wl := range []string{"apache4x16p", "jbb4x16p", "mixed-sci"} {
		for _, p := range ProtocolNames {
			cfg := smallCfg(p, wl)
			cfg.WarmupRefs = 1500
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunWarmup(); err != nil {
				t.Fatalf("%s/%s: %v", wl, p, err)
			}
			if n := s.Kernel.Pending(); n > 0 {
				t.Errorf("%s/%s: %d events pending after warmup", wl, p, n)
			}
			if err := proto.CheckQuiescent(s.Engine); err != nil {
				t.Errorf("%s/%s: %v", wl, p, err)
			}
		}
	}
}

// TestPhaseStats pins the always-on phase timing: a run reports warmup
// then measure, the measure stat agrees with the Result on refs and
// kernel events, and both executors report the same simulated phases.
func TestPhaseStats(t *testing.T) {
	var serial []PhaseStat
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Protocol = "directory"
			cfg.RefsPerCore = 400
			cfg.WarmupRefs = 800
			cfg.Shards, cfg.Parallel = shards, shards > 0
			s, err := NewSystem(cfg)
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
			if ph := phases[1]; ph.Name != "measure" || ph.Refs != res.Refs || ph.Events != res.Events {
				t.Errorf("measure stat %+v, want refs %d events %d", ph, res.Refs, res.Events)
			}
			if ph := phases[1]; ph.Cycles == 0 || ph.WallNS <= 0 {
				t.Errorf("measure stat %+v has no cycles or wall time", ph)
			}
			// Both executors retire the same refs with the same events.
			// Wall clock is host data, and the parallel clock stops at
			// the end of its last window rather than at its last event.
			sim := append([]PhaseStat(nil), phases...)
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
}
