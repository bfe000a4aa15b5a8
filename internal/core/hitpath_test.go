package core

import (
	"math"
	"testing"

	"repro/internal/cache"
)

// TestPhaseBoundaryClock checks that a phase ends with the clock at or
// past its last retirement on both executors. A hit retires
// L1HitLatency cycles after the event that issued it, so the drained
// queue alone can leave the clock short of the warmup's last retire,
// and the measured phase would then start before warmup had retired.
func TestPhaseBoundaryClock(t *testing.T) {
	for _, wl := range []string{"apache4x16p", "mixed-sci"} {
		for _, p := range ProtocolNames {
			for _, shards := range []int{0, 2} {
				cfg := smallCfg(p, wl)
				cfg.WarmupRefs = 300
				cfg.Shards, cfg.Parallel = shards, shards > 0
				s, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunWarmup(); err != nil {
					t.Fatalf("%s/%s shards=%d: %v", wl, p, shards, err)
				}
				now := s.Kernel.Now()
				if s.SK != nil && s.SK.Now() != now {
					t.Errorf("%s/%s shards=%d: group clock %d, hub clock %d", wl, p, shards, s.SK.Now(), now)
				}
				for i := range s.drivers {
					if lr := s.drivers[i].lastRetire; now < lr {
						t.Errorf("%s/%s shards=%d: warmup ends at %d, before tile %d retired at %d",
							wl, p, shards, now, i, lr)
						break
					}
				}
			}
		}
	}
}

// TestHitPathNoAllocs gates the L1 hit path on every engine: a
// steady-state hit through Engine.Issue allocates nothing, and neither
// does one driver cycle — the issue event looks a hit up, retires it,
// draws the next reference and schedules its issue — which also costs
// exactly one kernel event.
func TestHitPathNoAllocs(t *testing.T) {
	for _, p := range ProtocolNames {
		t.Run(p, func(t *testing.T) {
			cfg := smallCfg(p, "apache4x16p")
			cfg.WarmupRefs = 200
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunWarmup(); err != nil {
				t.Fatal(err)
			}
			const warm cache.Addr = 0x7340
			k := s.Kernel
			s.Engine.Access(0, warm, true, func() {})
			k.Run(0)
			onDone := func() { t.Fatal("onDone called on a hit") }
			for _, write := range []bool{false, true} {
				issue := func() {
					if !s.Engine.Issue(0, warm, write, onDone) {
						t.Fatalf("write=%v: warm block missed", write)
					}
				}
				if avg := testing.AllocsPerRun(200, issue); avg != 0 {
					t.Errorf("Issue hit (write=%v) allocates %.2f/op, want 0", write, avg)
				}
			}

			// Only tile 0 keeps drawing references; every other driver
			// ends its phase at its first event.
			s.seedPhase(math.MaxInt32)
			for i := 1; i < len(s.retired); i++ {
				s.retired[i] = s.phaseRefs
			}
			d := &s.drivers[0]
			// cycle pins the stored access to the warm block and
			// dispatches the driver's next event.
			cycle := func() {
				d.addr, d.write = warm, false
				if !k.Step() {
					t.Fatal("driver queue drained")
				}
			}
			for s.phaseDone < len(s.drivers)-1 || s.retired[0] == 0 {
				cycle()
			}
			if k.Pending() != 1 {
				t.Fatalf("%d events pending, want tile 0's next issue only", k.Pending())
			}
			for i := 0; i < 64; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Errorf("driver hit cycle allocates %.2f/op, want 0", avg)
			}
			refs, events, hits := s.retired[0], k.EventsRun(), s.Ctx.Profile.Hits
			for i := 0; i < 100; i++ {
				cycle()
			}
			if got := s.retired[0] - refs; got != 100 {
				t.Errorf("100 driver cycles retired %d refs", got)
			}
			if got := s.Ctx.Profile.Hits - hits; got != 100 {
				t.Errorf("100 driver cycles counted %d hits", got)
			}
			if got := k.EventsRun() - events; got != 100 {
				t.Errorf("100 hits cost %d kernel events, want 100", got)
			}
		})
	}
}
