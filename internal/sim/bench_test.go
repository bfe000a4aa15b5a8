package sim

import "testing"

// The kernel benchmarks model the scheduler load the coherence
// simulation generates: a working set of a few thousand pending events
// with short, irregular delays, pushed and popped continuously. Run
// with -benchmem; the steady-state paths must report 0 allocs/op.

// BenchmarkStep measures pure pop/dispatch throughput over a deep
// queue, refilled in untimed sections.
func BenchmarkStep(b *testing.B) {
	k := NewKernel(1)
	nop := func(any) {}
	const chunk = 8192
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		n := chunk
		if b.N-done < n {
			n = b.N - done
		}
		for i := 0; i < n; i++ {
			k.AfterArg(Time(i%211), nop, nil)
		}
		b.StartTimer()
		for i := 0; i < n; i++ {
			k.Step()
		}
		done += n
	}
}

// BenchmarkScheduleArg measures steady-state push+pop throughput: the
// queue is held at a constant depth and every iteration schedules one
// event and executes one. The handler is long-lived and non-capturing
// and its small integer argument boxes without allocating, so the path
// is allocation-free even at the call site.
func BenchmarkScheduleArg(b *testing.B) {
	k := NewKernel(1)
	sink := 0
	fn := func(a any) { sink += a.(int) }
	const depth = 4096
	for i := 0; i < depth; i++ {
		k.AfterArg(Time(i%97), fn, i%64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterArg(Time(i%97), fn, i%64)
		k.Step()
	}
}

// BenchmarkMixedAtAfter mixes absolute and relative scheduling with a
// spread of delays, the pattern the mesh and protocol engines produce
// (short hop latencies plus occasional long retry backoffs).
func BenchmarkMixedAtAfter(b *testing.B) {
	k := NewKernel(1)
	nop := func(any) {}
	const depth = 2048
	for i := 0; i < depth; i++ {
		k.AfterArg(Time(i%61), nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i & 3 {
		case 0:
			k.AfterArg(5, nop, nil)
		case 1:
			k.AtArg(k.Now()+Time(i%131), nop, nil)
		case 2:
			k.AfterArg(48, nop, nil) // retry backoff
		default:
			k.AfterArg(0, nop, nil) // same-cycle event
		}
		k.Step()
	}
}
