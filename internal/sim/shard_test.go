package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// ---- synthetic workload -------------------------------------------------
//
// The workload models "tiles" running chains of events with per-tile
// accumulators folded at every dispatch, so any deviation in dispatch
// order — global, per-cycle, or within a slot — changes the recorded
// traces. Tile state is owned by the tile's lane, so the workload is
// valid on a serial kernel and the parallel window executor alike.

// mix is a small deterministic hash for branching decisions.
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

type traceEnt struct {
	At   Time
	Step int
	Acc  uint64
}

// workloadB is shard-affine: a tile's events run on its lane and touch
// only that lane's tiles; cross-lane interaction flows through Send
// with delay >= lookahead. Message payloads fold the sender's
// accumulator into the receiver's, so stamp-order mistakes at a window
// barrier (which would reorder same-cycle arrivals against local
// events) change the traces. The reference runs the same workload on
// one serial kernel, where Send is a plain AfterArg.
type workloadB struct {
	tiles     int
	steps     int
	seed      uint64
	lookahead Time
	sk        *ShardedKernel // nil on the serial reference
	serial    *Kernel        // the serial reference's kernel
	acc       []uint64
	trace     [][]traceEnt
}

// laneOf maps a tile to its lane (0 on the serial reference).
func (w *workloadB) laneOf(tile int) int {
	if w.sk == nil {
		return 0
	}
	return tile % w.sk.NumShards()
}

// kernel returns the kernel a tile's events run on.
func (w *workloadB) kernel(tile int) *Kernel {
	if w.sk == nil {
		return w.serial
	}
	return w.sk.Shard(w.laneOf(tile))
}

// run executes the workload up to limit (0 = drain): on the serial
// kernel for the reference, on RunParallel otherwise.
func (w *workloadB) run(limit Time) uint64 {
	if w.sk == nil {
		return w.serial.Run(limit)
	}
	return w.sk.RunParallel(limit)
}

// events returns the total events dispatched so far.
func (w *workloadB) events() uint64 {
	if w.sk == nil {
		return w.serial.EventsRun()
	}
	return w.sk.EventsRun()
}

type bMsg struct {
	w    *workloadB
	tile int
	step int
	fold uint64
}

func runB(a any) {
	m := a.(*bMsg)
	w := m.w
	k := w.kernel(m.tile)
	w.acc[m.tile] = w.acc[m.tile]*31 + uint64(m.tile*1000+m.step) + uint64(k.Now()) + m.fold
	w.trace[m.tile] = append(w.trace[m.tile], traceEnt{At: k.Now(), Step: m.step, Acc: w.acc[m.tile]})
	if m.step >= w.steps {
		return
	}
	h := mix(uint64(m.tile)+w.seed<<32, uint64(m.step))
	k.AfterArg(Time(h%7), runB, &bMsg{w: w, tile: m.tile, step: m.step + 1})
	// Side events are leaves (step = steps) so the event count stays
	// linear while every message still lands, records, and folds.
	switch h % 4 {
	case 0:
		// Cross-tile message at exactly the lookahead horizon, carrying
		// this tile's accumulator.
		other := int(h>>8) % w.tiles
		k.Send(w.laneOf(other), w.lookahead+Time(h>>16%4), runB,
			&bMsg{w: w, tile: other, step: w.steps, fold: w.acc[m.tile]})
	case 1:
		// Far-future self event: provisional stamps in the overflow heap.
		k.AfterArg(wheelSize+Time(h>>16%300), runB, &bMsg{w: w, tile: m.tile, step: w.steps})
	}
}

// newWorkloadB seeds the workload on a group of shards lanes, or on
// one serial kernel when shards is 0.
func newWorkloadB(tiles, steps, shards int, lookahead Time, seed uint64) *workloadB {
	w := &workloadB{tiles: tiles, steps: steps, seed: seed, lookahead: lookahead,
		acc: make([]uint64, tiles), trace: make([][]traceEnt, tiles)}
	if shards == 0 {
		w.serial = NewKernel(7 + seed)
	} else {
		w.sk = NewSharded(7+seed, shards, lookahead)
	}
	for i := 0; i < tiles; i++ {
		w.kernel(i).AtArg(Time(i%3), runB, &bMsg{w: w, tile: i, step: 0})
	}
	return w
}

// TestShardedParallelMatchesSequential drives the parallel window
// executor over the shard-affine workload and requires the per-tile
// traces to be identical to one sequential (serial) kernel's, across
// shard counts and lookaheads (including lookahead = 1, one-cycle
// windows).
func TestShardedParallelMatchesSequential(t *testing.T) {
	const tiles, steps = 8, 100
	for _, la := range []Time{1, 5, 12} {
		ref := newWorkloadB(tiles, steps, 0, la, 1)
		ref.run(0)
		for shards := 1; shards <= 4; shards++ {
			got := newWorkloadB(tiles, steps, shards, la, 1)
			got.run(0)
			if !reflect.DeepEqual(got.trace, ref.trace) {
				t.Fatalf("lookahead=%d shards=%d: parallel traces diverged from serial", la, shards)
			}
			if got.events() != ref.events() {
				t.Fatalf("lookahead=%d shards=%d: events %d != %d",
					la, shards, got.events(), ref.events())
			}
		}
	}
}

// TestShardedParallelSplitAtSeam proves the barrier assigns the exact
// stamps a serial run would have: a parallel run stopped at a seam and
// resumed must equal the serial run, which can only hold if every
// pending event crosses the seam with its exact serial-order stamp.
func TestShardedParallelSplitAtSeam(t *testing.T) {
	const tiles, steps = 8, 100
	ref := newWorkloadB(tiles, steps, 0, 5, 2)
	ref.run(0)
	for _, seam := range []Time{1, 17, 400, 2000} {
		got := newWorkloadB(tiles, steps, 3, 5, 2)
		got.run(seam)
		got.run(0)
		if !reflect.DeepEqual(got.trace, ref.trace) {
			t.Fatalf("seam=%d: split parallel traces diverged from serial", seam)
		}
	}
}

// TestShardedSameCycleCrossShardArrival pins the barrier rule for the
// trickiest case: a cross-shard arrival and a locally scheduled event
// on the same lane in the same cycle must dispatch in global schedule
// order, whichever lane scheduled first — even though both schedule
// calls ran concurrently in the same window.
func TestShardedSameCycleCrossShardArrival(t *testing.T) {
	run := func(sendFirst bool) []string {
		sk := NewSharded(1, 2, Time(4))
		var order []string
		send := func() { sk.Shard(0).Send(1, 4, func(any) { order = append(order, "arrival") }, nil) }
		local := func() { sk.Shard(1).AfterArg(4, call, func() { order = append(order, "local") }) }
		// Both events fire at cycle 0 on different lanes; their seeding
		// order is their global schedule order.
		if sendFirst {
			sk.Shard(0).AtArg(0, call, send)
			sk.Shard(1).AtArg(0, call, local)
		} else {
			sk.Shard(1).AtArg(0, call, local)
			sk.Shard(0).AtArg(0, call, send)
		}
		sk.RunParallel(0)
		return order
	}
	if got, want := run(false), []string{"local", "arrival"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("same-cycle order = %v, want %v", got, want)
	}
	if got, want := run(true), []string{"arrival", "local"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("same-cycle mirror order = %v, want %v", got, want)
	}
}

// TestShardedIdleLanes checks lanes with zero pending events at the
// horizon: they must join every window barrier without stalling the run
// or desynchronizing clocks.
func TestShardedIdleLanes(t *testing.T) {
	sk := NewSharded(3, 4, 2)
	var fired []Time
	sk.Shard(2).AtArg(10, call, func() { fired = append(fired, sk.Shard(2).Now()) })
	sk.Shard(2).AfterArg(wheelSize+50, call, func() { fired = append(fired, sk.Shard(2).Now()) })
	if n := sk.RunParallel(0); n != 2 {
		t.Fatalf("ran %d events, want 2", n)
	}
	if want := []Time{10, wheelSize + 50}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	// The last window is [wheelSize+50, wheelSize+51]; every lane rests
	// at its end.
	for i := 0; i < sk.NumShards(); i++ {
		if got := sk.Shard(i).Now(); got != sk.Now() || got != wheelSize+51 {
			t.Fatalf("lane %d clock %d, group %d, want %d (idle lanes must advance)",
				i, got, sk.Now(), wheelSize+51)
		}
	}
}

// TestShardedSendBelowLookaheadPanics: the conservative horizon is an
// invariant, not advice.
func TestShardedSendBelowLookaheadPanics(t *testing.T) {
	sk := NewSharded(1, 2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard Send below lookahead did not panic")
		}
	}()
	sk.Shard(0).Send(1, 4, func(any) {}, nil)
}

// TestShardedRunLimit mirrors the serial Run(limit) contract, including
// the overflow migration on the final clock jump (the PR 5 bug class).
func TestShardedRunLimit(t *testing.T) {
	sk := NewSharded(9, 2, 3)
	var got []int
	sk.Shard(0).AtArg(1500, call, func() { got = append(got, 0) })
	sk.Shard(1).AtArg(10, call, func() { got = append(got, 1) })
	sk.RunParallel(1000)
	if want := []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after RunParallel(1000): %v, want %v", got, want)
	}
	if sk.Now() != 1000 || sk.Shard(0).Now() != 1000 || sk.Shard(1).Now() != 1000 {
		t.Fatalf("Now() = %d (lanes %d, %d), want 1000", sk.Now(), sk.Shard(0).Now(), sk.Shard(1).Now())
	}
	// An event scheduled after the jump must not overtake the pending
	// overflow event.
	sk.Shard(0).AtArg(1800, call, func() { got = append(got, 2) })
	sk.RunParallel(0)
	if want := []int{1, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("final order %v, want %v", got, want)
	}
}

// TestShardedStress sweeps seeds and shard counts, cross-checking the
// parallel executor against the serial kernel on bigger workloads —
// the seeded stress sweep the race stage runs under -race.
func TestShardedStress(t *testing.T) {
	tiles, steps := 12, 150
	if testing.Short() {
		tiles, steps = 6, 60
	}
	for seed := 0; seed < 3; seed++ {
		ref := newWorkloadB(tiles, steps, 0, 5, uint64(seed))
		ref.run(0)
		for shards := 1; shards <= 4; shards++ {
			par := newWorkloadB(tiles, steps, shards, 5, uint64(seed))
			par.run(0)
			if !reflect.DeepEqual(par.trace, ref.trace) {
				t.Fatalf("seed=%d shards=%d: parallel diverged from serial", seed, shards)
			}
		}
	}
}

// BenchmarkShardedParallel measures the parallel window executor on a
// shard-affine workload, against the same workload on one serial
// kernel — the kernel-level scaling harness EXPERIMENTS.md quotes.
func BenchmarkShardedParallel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("serial/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				newWorkloadB(shards*4, 400, 0, 5, 3).run(0)
			}
		})
		b.Run(fmt.Sprintf("par/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				newWorkloadB(shards*4, 400, shards, 5, 3).run(0)
			}
		})
	}
}
