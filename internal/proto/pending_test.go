package proto_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/sim"
)

// pauser walks the pending state of a checked run each time the kernel
// has dispatched the next of its event counts.
type pauser struct {
	t       *testing.T
	name    string
	c       *check.Chip
	targets []uint64 // ascending event counts still to pause at
	walks   int
	events  int // engine events checked
	waiters int // L1 and home waiters checked
}

// foreignArg claims the events the harness schedules: the stream
// players, the stall watchdog and the pauser itself.
func foreignArg(arg any) bool {
	switch arg.(type) {
	case *sim.Watchdog, *pauser:
		return true
	}
	return reflect.TypeOf(arg).String() == "*check.player"
}

// pauseStep runs once a cycle until every target is reached.
func pauseStep(a any) {
	p := a.(*pauser)
	if n := p.c.Kernel.EventsRun(); n >= p.targets[0] {
		for len(p.targets) > 0 && p.targets[0] <= n {
			p.targets = p.targets[1:]
		}
		p.walks++
		bad, events, waiters := proto.PendingNotData(p.c.Engine, p.c.Kernel, foreignArg)
		p.events += events
		p.waiters += waiters
		for _, b := range bad {
			p.t.Errorf("%s, paused after %d events: %s", p.name, n, b)
		}
	}
	if len(p.targets) > 0 {
		p.c.Kernel.AfterArg(1, pauseStep, p)
	}
}

// TestPendingStateIsData pauses checked stress runs of all four engines,
// on a narrow and a wide stream, at seeded random event counts. At each
// pause no pending event may use the closure form, and every engine
// event and every L1 and home waiter must be a bound handler with a
// *message: the pending state is data an explorer can hash.
func TestPendingStateIsData(t *testing.T) {
	streams := []struct {
		name string
		recs []check.Ref
	}{
		{"narrow", check.ConflictStream(3, 16, 8, 400, 60)},
		{"wide", check.ConflictStream(3, 16, 512, 800, 60)},
	}
	for si, s := range streams {
		for _, p := range stressProtocols {
			name := fmt.Sprintf("%s/%s", s.name, p)
			// The paused run dispatches at least as many events as an
			// unpaused one, so every target is reached.
			c, err := check.NewChip(check.ChipConfig{Protocol: p, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunConcurrent(s.recs); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			total := c.Kernel.EventsRun()
			rng := sim.NewRand(uint64(100 + si))
			var targets []uint64
			for i := 0; i < 40; i++ {
				targets = append(targets, 1+uint64(rng.Intn(int(total-1))))
			}
			slices.Sort(targets)
			c, err = check.NewChip(check.ChipConfig{Protocol: p, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			pz := &pauser{t: t, name: name, c: c, targets: targets}
			c.Kernel.AfterArg(1, pauseStep, pz)
			if err := c.RunConcurrent(s.recs); err != nil {
				t.Fatalf("%s paused: %v", name, err)
			}
			if len(pz.targets) != 0 || pz.events == 0 {
				t.Errorf("%s: %d walks checked %d events; %d pauses never ran", name, pz.walks, pz.events, len(pz.targets))
			}
			t.Logf("%s: %d walks, %d engine events, %d waiters", name, pz.walks, pz.events, pz.waiters)
		}
	}
}
