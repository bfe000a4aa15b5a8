package check

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestDebugSeed reproduces one stress seed (scratch debugging aid,
// driven by DBG_SEED / DBG_PROTO env vars; skipped otherwise). With
// DBG_TRACE=<block> it arms the span tracer on the chip and prints
// every hop and protocol step of that block in time order, whether
// the seed passes or fails.
func TestDebugSeed(t *testing.T) {
	s := os.Getenv("DBG_SEED")
	if s == "" {
		t.Skip("set DBG_SEED to run")
	}
	seed, _ := strconv.Atoi(s)
	p := os.Getenv("DBG_PROTO")
	if p == "" {
		p = "directory"
	}
	blocks := []int{1, 2, 4, 8, 16, 48}[seed%6]
	writePct := []int{40, 60, 75}[seed%3]
	recs := ConflictStream(uint64(seed), 16, blocks, 700, writePct)
	c, err := NewChip(ChipConfig{Protocol: p, Tiles: 16, Areas: 4, Seed: uint64(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if a := os.Getenv("DBG_TRACE"); a != "" {
		addr, err := strconv.ParseUint(a, 0, 64)
		if err != nil {
			t.Fatalf("DBG_TRACE=%q: %v", a, err)
		}
		tr := telemetry.NewTracer(c.Kernel, p, c.Ctx.NumTiles(), 0)
		c.Ctx.Spans = tr
		c.Ctx.Net.SetObserver(tr)
		defer func() {
			history := blockHistory(tr, addr)
			for _, line := range history {
				fmt.Println(line)
			}
			if len(history) == 0 {
				t.Errorf("DBG_TRACE: no span touched block %#x", addr)
			}
		}()
	}
	if err := c.RunConcurrent(recs); err != nil {
		t.Fatalf("seed %d blocks %d write%%%d %s:\n%v", seed, blocks, writePct, p, err)
	}
}

// blockHistory renders what the tracer saw of one block: the misses on
// it with their hops, and every protocol step on it from any span
// (evictions and recalls land in the span of the miss that caused
// them), sorted by cycle.
func blockHistory(tr *telemetry.Tracer, addr uint64) []string {
	type line struct {
		at   sim.Time
		text string
	}
	var lines []line
	add := func(at sim.Time, format string, args ...any) {
		lines = append(lines, line{at, fmt.Sprintf("t=%-8d %s", at, fmt.Sprintf(format, args...))})
	}
	for _, s := range tr.Spans() {
		if s.Addr == addr {
			add(s.Start, "span %d: miss at %d write=%v", s.ID, s.Tile, s.Write)
			for _, h := range s.Hops {
				add(h.Depart, "span %d: hop %d->%d flits=%d arrive=%d late=%v", s.ID, h.Src, h.Dst, h.Flits, h.Arrive, h.Late)
			}
			if s.Closed() {
				add(s.End, "span %d: retired class=%s dropped=%v", s.ID, s.Class, s.Dropped)
			}
		}
		for _, ev := range s.Events {
			if ev.Addr == addr {
				add(ev.At, "span %d: %s at %d", s.ID, ev.Name, ev.Tile)
			}
		}
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].at < lines[j].at })
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = l.text
	}
	return out
}
