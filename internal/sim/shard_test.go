package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// ---- synthetic workloads ------------------------------------------------
//
// Both workloads model "tiles" running chains of events with per-tile
// accumulators folded at every dispatch, so any deviation in dispatch
// order — global, per-cycle, or within a slot — changes the recorded
// traces. Tile state is owned by the tile's lane, so the workloads are
// valid on a serial kernel, the sequential merge, and (workload B) the
// parallel window executor alike.

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

// workloadA exercises the sequential merge against a serial kernel with
// the full schedule vocabulary: same-cycle storms, delay-0 cross-tile
// schedules, and far-future delays that land in the overflow heap.
// kernelFor maps a tile to the kernel its events run on (the single
// kernel serially, the tile's lane when sharded); global records the
// exact whole-run dispatch order.
type workloadA struct {
	tiles     int
	steps     int
	seed      uint64
	kernelFor func(tile int) *Kernel
	acc       []uint64
	trace     [][]traceEnt
	global    []int // tile ids in dispatch order
}

func (w *workloadA) run(tile, step int) {
	k := w.kernelFor(tile)
	w.acc[tile] = w.acc[tile]*31 + uint64(tile*1000+step) + uint64(k.Now())
	w.trace[tile] = append(w.trace[tile], traceEnt{At: k.Now(), Step: step, Acc: w.acc[tile]})
	w.global = append(w.global, tile)
	if step >= w.steps {
		return
	}
	h := mix(uint64(tile)+w.seed<<32, uint64(step))
	// Continue this tile's chain.
	w.kernelFor(tile).After(Time(h%7), func() { w.run(tile, step+1) })
	// Sometimes poke another tile, including at delay 0 (same cycle),
	// and sometimes far enough out to land in the overflow heap. Pokes
	// are leaves (step jumps to the end) so the event count stays linear
	// while every poke still records a trace entry at its landing cycle.
	switch h % 5 {
	case 0:
		other := int(h>>8) % w.tiles
		w.kernelFor(other).After(Time(h>>16%3), func() { w.run(other, w.steps) })
	case 1:
		other := (tile + 1) % w.tiles
		w.kernelFor(other).After(0, func() { w.run(other, w.steps) })
	case 2:
		w.kernelFor(tile).After(wheelSize+Time(h>>16%500), func() { w.run(tile, w.steps) })
	}
}

func runWorkloadA(tiles, steps, shards int, seed uint64) *workloadA {
	w := &workloadA{tiles: tiles, steps: steps, seed: seed,
		acc: make([]uint64, tiles), trace: make([][]traceEnt, tiles)}
	if shards == 0 {
		k := NewKernel(42)
		w.kernelFor = func(int) *Kernel { return k }
		for i := 0; i < tiles; i++ {
			tile := i
			k.At(Time(i%3), func() { w.run(tile, 0) })
		}
		k.Run(0)
		return w
	}
	sk := NewSharded(42, shards, 5)
	w.kernelFor = func(tile int) *Kernel { return sk.Shard(tile % shards) }
	for i := 0; i < tiles; i++ {
		tile := i
		w.kernelFor(tile).At(Time(i%3), func() { w.run(tile, 0) })
	}
	sk.Run(0)
	return w
}

// TestShardedSequentialMatchesSerial is the tentpole's anchor: the
// sequential merge must dispatch the exact whole-run event order of a
// serial kernel, for any shard count, including same-cycle cross-shard
// events and overflow-heap traffic.
func TestShardedSequentialMatchesSerial(t *testing.T) {
	serial := runWorkloadA(8, 120, 0, 1)
	for shards := 1; shards <= 5; shards++ {
		got := runWorkloadA(8, 120, shards, 1)
		if !reflect.DeepEqual(got.global, serial.global) {
			t.Fatalf("shards=%d: global dispatch order diverged (serial %d events, sharded %d)",
				shards, len(serial.global), len(got.global))
		}
		if !reflect.DeepEqual(got.trace, serial.trace) {
			t.Fatalf("shards=%d: per-tile traces diverged", shards)
		}
	}
}

// workloadB is shard-affine: a tile's events run on its lane and touch
// only that lane's tiles; cross-lane interaction flows through Send
// with delay >= lookahead. Message payloads fold the sender's
// accumulator into the receiver's, so stamp-order mistakes at a window
// barrier (which would reorder same-cycle arrivals against local
// events) change the traces.
type workloadB struct {
	tiles     int
	steps     int
	seed      uint64
	lookahead Time
	sk        *ShardedKernel
	laneOf    func(tile int) int
	acc       []uint64
	trace     [][]traceEnt
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
	k := w.sk.Shard(w.laneOf(m.tile))
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

func newWorkloadB(tiles, steps, shards int, lookahead Time, seed uint64) *workloadB {
	w := &workloadB{tiles: tiles, steps: steps, seed: seed, lookahead: lookahead,
		sk:  NewSharded(7+seed, shards, lookahead),
		acc: make([]uint64, tiles), trace: make([][]traceEnt, tiles)}
	w.laneOf = func(tile int) int { return tile % shards }
	for i := 0; i < tiles; i++ {
		w.sk.Shard(w.laneOf(i)).AtArg(Time(i%3), runB, &bMsg{w: w, tile: i, step: 0})
	}
	return w
}

// TestShardedParallelMatchesSequential drives the parallel window
// executor over the shard-affine workload and requires the per-tile
// traces to be identical to the sequential merge's, across shard counts
// and lookaheads (including lookahead = 1, one-cycle windows).
func TestShardedParallelMatchesSequential(t *testing.T) {
	const tiles, steps = 8, 100
	for _, la := range []Time{1, 5, 12} {
		for shards := 1; shards <= 4; shards++ {
			ref := newWorkloadB(tiles, steps, shards, la, 1)
			ref.sk.Run(0)
			got := newWorkloadB(tiles, steps, shards, la, 1)
			got.sk.RunParallel(0)
			if !reflect.DeepEqual(got.trace, ref.trace) {
				t.Fatalf("lookahead=%d shards=%d: parallel traces diverged from sequential", la, shards)
			}
			if got.sk.EventsRun() != ref.sk.EventsRun() {
				t.Fatalf("lookahead=%d shards=%d: events %d != %d",
					la, shards, got.sk.EventsRun(), ref.sk.EventsRun())
			}
		}
	}
}

// TestShardedParallelThenSequential proves the barrier assigns the
// exact stamps the sequential merge would have: a run split into a
// parallel prefix and a sequential suffix must equal an all-sequential
// run, which can only hold if every pending event crosses the seam with
// its exact serial-order stamp.
func TestShardedParallelThenSequential(t *testing.T) {
	const tiles, steps = 8, 100
	for _, seam := range []Time{1, 17, 400, 2000} {
		ref := newWorkloadB(tiles, steps, 3, 5, 2)
		ref.sk.Run(0)
		got := newWorkloadB(tiles, steps, 3, 5, 2)
		got.sk.RunParallel(seam)
		got.sk.Run(0)
		if !reflect.DeepEqual(got.trace, ref.trace) {
			t.Fatalf("seam=%d: parallel-then-sequential traces diverged", seam)
		}
	}
}

// TestShardedSameCycleCrossShardArrival pins the merge rule for the
// trickiest case: a cross-shard arrival and a locally scheduled event
// on the same lane in the same cycle must dispatch in global schedule
// order, whichever lane scheduled first.
func TestShardedSameCycleCrossShardArrival(t *testing.T) {
	sk := NewSharded(1, 2, Time(4))
	var order []string
	// Lane 1 schedules a local event for cycle 4 first...
	sk.Shard(1).At(4, func() { order = append(order, "local") })
	// ...then lane 0 sends a message also arriving at cycle 4: later in
	// global schedule order, so it must dispatch second.
	sk.Shard(0).Send(1, 4, func(any) { order = append(order, "arrival") }, nil)
	sk.Run(0)
	if want := []string{"local", "arrival"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("same-cycle order = %v, want %v", order, want)
	}

	// The mirror image: the cross-shard send happens first, so the
	// arrival dispatches first.
	sk2 := NewSharded(1, 2, Time(4))
	order = nil
	sk2.Shard(0).Send(1, 4, func(any) { order = append(order, "arrival") }, nil)
	sk2.Shard(1).At(4, func() { order = append(order, "local") })
	sk2.Run(0)
	if want := []string{"arrival", "local"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("same-cycle mirror order = %v, want %v", order, want)
	}
}

// TestShardedIdleLanes checks lanes with zero pending events at the
// horizon: they must neither stall the merge nor desynchronize clocks.
func TestShardedIdleLanes(t *testing.T) {
	sk := NewSharded(3, 4, 2)
	var fired []Time
	sk.Shard(2).At(10, func() { fired = append(fired, sk.Shard(2).Now()) })
	sk.Shard(2).After(wheelSize+50, func() { fired = append(fired, sk.Shard(2).Now()) })
	if n := sk.Run(0); n != 2 {
		t.Fatalf("ran %d events, want 2", n)
	}
	if want := []Time{10, wheelSize + 50}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := 0; i < sk.NumShards(); i++ {
		if got := sk.Shard(i).Now(); got != wheelSize+50 {
			t.Fatalf("lane %d clock %d, want %d (idle lanes must advance)", i, got, wheelSize+50)
		}
	}
	// Parallel flavor: idle lanes join every window barrier.
	sk2 := NewSharded(3, 4, 2)
	n := 0
	sk2.Shard(1).At(9, func() { n++ })
	sk2.Shard(1).After(200, func() { n++ })
	sk2.RunParallel(0)
	if n != 2 {
		t.Fatalf("parallel ran %d events, want 2", n)
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
	sk.Shard(0).At(1500, func() { got = append(got, 0) })
	sk.Shard(1).At(10, func() { got = append(got, 1) })
	sk.Run(1000)
	if want := []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Run(1000): %v, want %v", got, want)
	}
	if sk.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000", sk.Now())
	}
	// An event scheduled after the jump must not overtake the pending
	// overflow event.
	sk.Shard(0).At(1800, func() { got = append(got, 2) })
	sk.Run(0)
	if want := []int{1, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("final order %v, want %v", got, want)
	}
}

// TestShardedStateRoundTrip checks the merged snapshot surface: a
// sharded group's state restores into another group (and a serial
// kernel's state restores into a group), continuing bit-identically.
func TestShardedStateRoundTrip(t *testing.T) {
	sk := NewSharded(11, 3, 5)
	ran := 0
	for i := 0; i < 3; i++ {
		sk.Shard(i).After(Time(5*i+3), func() { ran++ })
	}
	sk.Run(0)
	st, err := sk.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 3 || st.Now != 13 {
		t.Fatalf("state = %+v, want Events=3 Now=13", st)
	}

	sk2 := NewSharded(11, 3, 5)
	if err := sk2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	st2, err := sk2.State()
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st {
		t.Fatalf("restored state %+v != captured %+v", st2, st)
	}
	if sk2.Now() != st.Now || sk2.Shard(2).Now() != st.Now {
		t.Fatal("restore did not align lane clocks")
	}

	// Serial -> sharded: the merged surface is the same type, so a
	// serial warmup snapshot restores into a sharded measure phase.
	k := NewKernel(11)
	k.After(9, func() {})
	k.Run(0)
	kst, err := k.State()
	if err != nil {
		t.Fatal(err)
	}
	sk3 := NewSharded(11, 2, 5)
	if err := sk3.RestoreState(kst); err != nil {
		t.Fatal(err)
	}
	if sk3.Now() != 9 || sk3.EventsRun() != 1 {
		t.Fatalf("serial->sharded restore: Now=%d Events=%d", sk3.Now(), sk3.EventsRun())
	}

	// Not quiescent: capture must fail, exactly like the serial kernel.
	sk3.Shard(1).After(4, func() {})
	if _, err := sk3.State(); err == nil {
		t.Fatal("State() on a non-quiescent sharded kernel did not fail")
	}
}

// TestShardedStress sweeps seeds and shard counts, cross-checking the
// parallel executor against the sequential merge on bigger workloads —
// the seeded stress sweep the race stage runs under -race.
func TestShardedStress(t *testing.T) {
	tiles, steps := 12, 150
	if testing.Short() {
		tiles, steps = 6, 60
	}
	for seed := 0; seed < 3; seed++ {
		serial := runWorkloadA(tiles, steps, 0, uint64(seed))
		for shards := 1; shards <= 4; shards++ {
			got := runWorkloadA(tiles, steps, shards, uint64(seed))
			if !reflect.DeepEqual(got.global, serial.global) {
				t.Fatalf("seed=%d shards=%d: sequential merge diverged", seed, shards)
			}
		}
		ref := newWorkloadB(tiles, steps, 4, 5, uint64(seed))
		ref.sk.Run(0)
		par := newWorkloadB(tiles, steps, 4, 5, uint64(seed))
		par.sk.RunParallel(0)
		if !reflect.DeepEqual(par.trace, ref.trace) {
			t.Fatalf("seed=%d: parallel diverged", seed)
		}
	}
}

// BenchmarkShardedParallel measures the parallel window executor on a
// shard-affine workload, against the same workload under the sequential
// merge — the kernel-level scaling harness EXPERIMENTS.md quotes.
func BenchmarkShardedParallel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("seq/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := newWorkloadB(shards*4, 400, shards, 5, 3)
				w.sk.Run(0)
			}
		})
		b.Run(fmt.Sprintf("par/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := newWorkloadB(shards*4, 400, shards, 5, 3)
				w.sk.RunParallel(0)
			}
		})
	}
}
