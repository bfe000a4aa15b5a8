package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

// call runs the func() it is scheduled with: the tests' events are
// closures, passed through the argument form.
func call(a any) { a.(func())() }

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.AtArg(10, call, func() { got = append(got, 1) })
	k.AtArg(5, call, func() { got = append(got, 0) })
	k.AtArg(10, call, func() { got = append(got, 2) }) // same time: FIFO by schedule order
	k.Run(0)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 10 {
		t.Errorf("Now = %d, want 10", k.Now())
	}
}

func TestKernelSameCycleFIFO(t *testing.T) {
	k := NewKernel(1)
	const n = 100
	var got []int
	for i := 0; i < n; i++ {
		i := i
		k.AtArg(42, call, func() { got = append(got, i) })
	}
	k.Run(0)
	for i := 0; i < n; i++ {
		if got[i] != i {
			t.Fatalf("same-cycle events out of FIFO order at %d: %v", i, got[i])
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var ev func(any)
	ev = func(any) {
		count++
		if count < 10 {
			k.AfterArg(3, ev, nil)
		}
	}
	k.AfterArg(0, ev, nil)
	k.Run(0)
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if k.Now() != 27 {
		t.Errorf("Now = %d, want 27", k.Now())
	}
}

func TestKernelRunLimit(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	for i := Time(1); i <= 100; i++ {
		k.AtArg(i*10, call, func() { ran++ })
	}
	n := k.Run(500)
	if n != 50 || ran != 50 {
		t.Errorf("ran %d events (cb %d), want 50", n, ran)
	}
	if k.Now() != 500 {
		t.Errorf("Now = %d, want 500", k.Now())
	}
	if k.Pending() != 50 {
		t.Errorf("Pending = %d, want 50", k.Pending())
	}
	k.Run(0)
	if ran != 100 {
		t.Errorf("after full drain ran = %d, want 100", ran)
	}
}

// TestKernelRunLimitThenSchedule covers a regression where Run(limit)
// jumped the clock without migrating overflow events the jump brought
// inside the wheel horizon: an event scheduled after Run returned could
// then land in the wheel ahead of an earlier unmigrated overflow event
// and dispatch out of order (with the clock running backwards).
func TestKernelRunLimitThenSchedule(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	record := func() { got = append(got, k.Now()) }
	k.AtArg(1500, call, record) // beyond the wheel horizon: goes to overflow
	k.AtArg(10, call, record)
	k.Run(1000) // jumps the clock to 1000; 1500 is now within the horizon
	if k.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", k.Now())
	}
	k.AtArg(1800, call, record) // scheduled after the jump, must fire after 1500
	k.Run(0)
	want := []Time{10, 1500, 1800}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
	if k.Now() != 1800 {
		t.Errorf("Now = %d, want 1800", k.Now())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(1)
	hits := 0
	for i := Time(1); i <= 20; i++ {
		k.AtArg(i, call, func() { hits++ })
	}
	k.RunUntil(func() bool { return hits >= 7 })
	if hits != 7 {
		t.Errorf("hits = %d, want 7", hits)
	}
}

func TestKernelAtArgOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	// Events with different handlers interleave in scheduling order at
	// the same cycle, and run in timestamp order across cycles.
	k.AtArg(10, record, 1)
	k.AtArg(10, call, func() { got = append(got, 2) })
	k.AtArg(10, record, 3)
	k.AtArg(5, record, 0)
	k.AfterArg(20, record, 4)
	k.Run(0)
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Errorf("Now = %d, want 20", k.Now())
	}
}

func TestKernelAtArgPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.AtArg(100, call, func() {})
	k.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("AtArg in the past did not panic")
		}
	}()
	k.AtArg(50, func(any) {}, nil)
}

func TestKernelDeepQueueOrdering(t *testing.T) {
	// Exercise multi-level sift-up and sift-down of the 4-ary heap
	// with a deterministic pseudo-random schedule, and verify events
	// pop in (time, seq) order.
	k := NewKernel(1)
	r := NewRand(99)
	const n = 5000
	type stamp struct {
		at  Time
		seq int
	}
	var got []stamp
	for i := 0; i < n; i++ {
		i := i
		at := Time(r.Intn(500))
		k.AtArg(at, call, func() { got = append(got, stamp{at, i}) })
	}
	k.Run(0)
	if len(got) != n {
		t.Fatalf("ran %d events, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("event %d (t=%d seq=%d) ran before %d (t=%d seq=%d)",
				i, b.at, b.seq, i-1, a.at, a.seq)
		}
	}
}

// TestKernelOverflowOrdering drives a schedule that spans several wheel
// horizons, so events start in the overflow heap and migrate into the
// wheel as the clock approaches them; the (time, seq) dispatch order
// must be indistinguishable from a plain priority queue.
func TestKernelOverflowOrdering(t *testing.T) {
	k := NewKernel(1)
	r := NewRand(321)
	const n = 5000
	type stamp struct {
		at  Time
		seq int
	}
	var got []stamp
	for i := 0; i < n; i++ {
		i := i
		at := Time(r.Intn(5000)) // ~80% beyond the wheel horizon
		k.AtArg(at, call, func() { got = append(got, stamp{at, i}) })
	}
	k.Run(0)
	if len(got) != n {
		t.Fatalf("ran %d events, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("event %d (t=%d seq=%d) ran before %d (t=%d seq=%d)",
				i, b.at, b.seq, i-1, a.at, a.seq)
		}
	}
}

// TestKernelOverflowMigrationFIFO pins the migration ordering contract:
// events that waited in the overflow heap run before events scheduled
// later, directly into the wheel, for the same cycle.
func TestKernelOverflowMigrationFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.AtArg(5000, call, func() { got = append(got, 0) }) // far future: overflow
	k.AtArg(1, call, func() {
		k.AtArg(5000, call, func() { got = append(got, 1) }) // still overflow
	})
	k.AtArg(4500, call, func() {
		// now = 4500: cycle 5000 is inside the wheel horizon, so this
		// schedules directly into the slot the overflow events migrated
		// to — and must run after them.
		k.AtArg(5000, call, func() { got = append(got, 2) })
	})
	k.Run(0)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestKernelAtArgNoAllocs gates the scheduler's steady state: once the
// node arena has grown to the working depth, AtArg + Step must not
// allocate.
func TestKernelAtArgNoAllocs(t *testing.T) {
	k := NewKernel(1)
	fn := func(any) {}
	var arg any = new(int)
	cycle := func() {
		k.AtArg(k.Now()+3, fn, arg)
		if !k.Step() {
			t.Fatal("Step found no event")
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("AtArg+Step steady state allocates %.2f/op, want 0", avg)
	}
}

// TestKernelPastPanics schedules into the past from inside a handler,
// where the clock is the dispatched event's time.
func TestKernelPastPanics(t *testing.T) {
	k := NewKernel(1)
	panicked := false
	k.AtArg(100, call, func() {
		defer func() { panicked = recover() != nil }()
		k.AtArg(99, call, func() {})
	})
	k.Run(0)
	if !panicked {
		t.Fatal("scheduling in the past did not panic")
	}
}

func TestKernelEmptyStep(t *testing.T) {
	k := NewKernel(1)
	if k.Step() {
		t.Error("Step on empty queue reported work")
	}
	if k.EventsRun() != 0 {
		t.Error("EventsRun nonzero on fresh kernel")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/1000 times", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(x uint16) bool {
		n := int(x%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / n
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(5)
	f1 := r.Fork()
	f2 := r.Fork()
	same := 0
	for i := 0; i < 1000; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams collide %d/1000 times", same)
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	k := NewKernel(1)
	nop := func(any) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterArg(Time(i%64), nop, nil)
		if k.Pending() > 1024 {
			k.Run(k.Now() + 32)
		}
	}
	k.Run(0)
}

// TestKernelTagPropagation requires the causal tag to be captured at
// scheduling time and restored at dispatch, so a tag set at the root
// of a transaction follows its entire causal tree of events.
func TestKernelTagPropagation(t *testing.T) {
	k := NewKernel(1)
	var got []uint64
	record := func() { got = append(got, k.Tag()) }

	k.SetTag(7)
	k.AfterArg(5, call, func() {
		record() // sees 7
		// Nested scheduling inherits the restored tag.
		k.AfterArg(5, call, record) // sees 7
		k.SetTag(9)
		k.AfterArg(1, call, record) // sees 9
	})
	k.SetTag(3)
	k.AfterArg(2, func(any) { record() }, nil) // sees 3
	k.SetTag(0)
	k.AfterArg(1, call, record) // sees 0 (untagged)

	k.Run(0)
	want := []uint64{0, 3, 7, 9, 7}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d saw tag %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestKernelTagInterleaving requires tags from two interleaved causal
// trees to stay separate: the dispatcher restores each event's own
// captured tag, so concurrent transactions cannot bleed into each
// other.
func TestKernelTagInterleaving(t *testing.T) {
	k := NewKernel(1)
	seen := map[uint64]int{}
	var grow func(tag uint64, depth int)
	grow = func(tag uint64, depth int) {
		if k.Tag() != tag {
			t.Errorf("depth %d: tag = %d, want %d", depth, k.Tag(), tag)
		}
		seen[tag]++
		if depth < 4 {
			// Both trees schedule into the same future cycles.
			k.AfterArg(Time(1+tag%3), call, func() { grow(tag, depth+1) })
		}
	}
	for tag := uint64(1); tag <= 5; tag++ {
		tag := tag
		k.SetTag(tag)
		k.AfterArg(1, call, func() { grow(tag, 1) })
	}
	k.SetTag(0)
	k.Run(0)
	for tag := uint64(1); tag <= 5; tag++ {
		if seen[tag] != 4 {
			t.Errorf("tree %d dispatched %d events, want 4", tag, seen[tag])
		}
	}
}

// TestKernelForEachPending walks a queue holding wheel and overflow
// events: every pending event is visited once with its time, handler
// and argument, the walk changes nothing, and a dispatched event is no
// longer visited.
func TestKernelForEachPending(t *testing.T) {
	k := NewKernel(1)
	nop := func(any) {}
	other := func(any) {}
	k.AtArg(3, nop, 1)
	k.AtArg(3, nop, 2)
	k.AtArg(7, other, 4)
	k.AtArg(wheelSize+40, nop, 3) // overflow heap
	walk := func() map[Time][]any {
		got := map[Time][]any{}
		k.ForEachPending(func(at Time, fn func(any), arg any) {
			if reflect.ValueOf(fn).Pointer() == reflect.ValueOf(other).Pointer() {
				arg = "other"
			}
			got[at] = append(got[at], arg)
		})
		return got
	}
	want := map[Time][]any{3: {1, 2}, 7: {"other"}, wheelSize + 40: {3}}
	if got := walk(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending = %v, want %v", got, want)
	}
	if k.Pending() != 4 {
		t.Fatalf("walk changed the queue: %d pending", k.Pending())
	}
	k.Step()
	want[3] = []any{2}
	if got := walk(); !reflect.DeepEqual(got, want) {
		t.Errorf("after one step pending = %v, want %v", got, want)
	}
}
