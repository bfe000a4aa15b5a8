package proto_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
)

// wantStalled requires err to be the stall rule's report with its
// block dump.
func wantStalled(t *testing.T, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "transaction stalled") || !strings.Contains(err.Error(), " home=") {
		t.Fatalf("err = %v, want a stalled transaction with its block dump", err)
	}
}

// TestStallIsCaught loses one memory response, so one miss never
// completes while the other cores keep the kernel busy, and requires
// each loop that drives a kernel to fail with the stall rule's report:
// a core run on the serial kernel and on the parallel executor, and a
// checked chip.
func TestStallIsCaught(t *testing.T) {
	// Tile 0 misses on block 0 alone; tile 1 starts after that response
	// is due and keeps missing, 100k cycles apart, for a million cycles.
	recs := []check.Ref{{Tile: 0, Addr: 0}}
	for i := 0; i < 10; i++ {
		gap := sim.Time(100_000)
		if i == 0 {
			gap = 2_000
		}
		recs = append(recs, check.Ref{Tile: 1, Addr: cache.Addr(1 + 16*i), Gap: gap})
	}
	for _, p := range stressProtocols {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("core/%s/shards=%d", p, shards), func(t *testing.T) {
				cfg := core.DefaultConfig()
				cfg.Protocol, cfg.Workload = p, "mixed-sci"
				cfg.Tiles, cfg.RefsPerCore = 16, 30_000
				cfg.Shards, cfg.Parallel = shards, shards > 0
				s, err := core.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				proto.LoseMemoryResponse(s.Engine)
				_, err = s.Run()
				wantStalled(t, err)
				if want := map[int]string{0: "serial", 2: "parallel"}[shards]; s.Executor() != want {
					t.Errorf("ran on the %s executor, want %s", s.Executor(), want)
				}
			})
		}
		t.Run("chip/"+p, func(t *testing.T) {
			c, err := check.NewChip(check.ChipConfig{Protocol: p, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			proto.LoseMemoryResponse(c.Engine)
			wantStalled(t, c.RunConcurrent(recs))
		})
	}
}
