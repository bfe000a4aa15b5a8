package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// TestTracerSpanLifecycle walks one traced transaction end to end:
// open, annotated, retried, message-attributed, closed — and checks
// that trailing traffic after the close lands as Late hops.
func TestTracerSpanLifecycle(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k, "directory", 16, 0)

	tr.BeginMiss(3, 0x1000, true)
	if k.Tag() == 0 {
		t.Fatal("BeginMiss did not set the kernel tag")
	}
	tr.Message(3, 5, 1, k.Now(), k.Now()+10, 2)
	tr.Annotate("evict", 3, 0x2000) // the fill's victim: another block
	tr.Retry(3)
	tr.Message(5, 3, 5, k.Now()+10, k.Now()+25, 2)
	if tr.OpenSpans() != 1 {
		t.Fatalf("OpenSpans = %d, want 1", tr.OpenSpans())
	}
	tr.EndMiss(3, "remote-l1", false)
	// Trailing traffic (unblock, writeback) still carries the tag.
	tr.Message(3, 5, 1, k.Now()+25, k.Now()+35, 2)

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	s := spans[0]
	if !s.Closed() || s.Class != "remote-l1" || s.Dropped {
		t.Errorf("span closed=%v class=%q dropped=%v, want true/remote-l1/false", s.Closed(), s.Class, s.Dropped)
	}
	if s.Retries != 1 {
		t.Errorf("retries = %d, want 1", s.Retries)
	}
	if len(s.Hops) != 3 || len(s.Events) != 2 {
		t.Fatalf("hops/events = %d/%d, want 3/2", len(s.Hops), len(s.Events))
	}
	if s.Events[0].Addr != 0x2000 || s.Events[1].Addr != 0x1000 {
		t.Errorf("event blocks = %#x/%#x, want the victim 0x2000 and the retried 0x1000",
			s.Events[0].Addr, s.Events[1].Addr)
	}
	if s.Hops[0].Late || s.Hops[1].Late || !s.Hops[2].Late {
		t.Error("only the post-retire hop should be marked Late")
	}
	if s.Messages() != 2 {
		t.Errorf("Messages() = %d, want 2 (late excluded)", s.Messages())
	}
	if tr.OpenSpans() != 0 || tr.Stray() != 0 || tr.Dropped() != 0 {
		t.Errorf("open/stray/dropped = %d/%d/%d, want 0/0/0", tr.OpenSpans(), tr.Stray(), tr.Dropped())
	}
}

// TestTracerDroppedFill requires a miss whose fill was invalidated
// while pending to close cleanly with the Dropped mark.
func TestTracerDroppedFill(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k, "dico", 4, 0)
	tr.BeginMiss(1, 0x40, false)
	tr.EndMiss(1, "remote-l1", true)
	s := tr.Spans()[0]
	if !s.Closed() || !s.Dropped {
		t.Errorf("closed=%v dropped=%v, want true/true", s.Closed(), s.Dropped)
	}
}

// TestTracerStray requires untagged traffic (tag 0) and traffic of
// evicted spans to count as stray rather than mis-attribute.
func TestTracerStray(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k, "arin", 4, 0)
	k.SetTag(0)
	tr.Message(0, 1, 1, 0, 5, 1)
	k.SetTag(999) // never issued by this tracer
	tr.Message(0, 1, 1, 0, 5, 1)
	tr.BroadcastDone(0, 1, 3, 9)
	if tr.Stray() != 3 {
		t.Errorf("stray = %d, want 3", tr.Stray())
	}
	if len(tr.Spans()) != 0 {
		t.Errorf("stray traffic created spans: %d", len(tr.Spans()))
	}
}

// TestTracerRingEviction requires the span ring to stay under its cap
// by dropping the oldest span, counting each eviction, and keeping the
// backing array's dead prefix bounded.
func TestTracerRingEviction(t *testing.T) {
	k := sim.NewKernel(1)
	const cap = 8
	tr := NewTracer(k, "directory", 1, cap)
	const n = 10 * cap
	for i := 0; i < n; i++ {
		tr.BeginMiss(0, uint64(i), false)
		tr.Message(0, 0, 1, k.Now(), k.Now()+3, 0)
		tr.EndMiss(0, "cold", false)
	}
	spans := tr.Spans()
	if len(spans) != cap {
		t.Fatalf("retained %d spans, want cap %d", len(spans), cap)
	}
	if tr.Dropped() != n-cap {
		t.Errorf("dropped = %d, want %d", tr.Dropped(), n-cap)
	}
	// The newest cap spans survive, in order.
	for i, s := range spans {
		if want := uint64(n - cap + i); s.Addr != want {
			t.Errorf("span %d addr = %#x, want %#x", i, s.Addr, want)
		}
	}
	// Traffic tagged with an evicted span is stray, not a crash.
	k.SetTag(1)
	tr.Message(0, 0, 1, 0, 1, 0)
	if tr.Stray() != 1 {
		t.Errorf("evicted-span traffic stray = %d, want 1", tr.Stray())
	}
}

// TestTracerEvictedOpenSpan requires EndMiss after the open span was
// evicted from the ring to be a clean no-op.
func TestTracerEvictedOpenSpan(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k, "directory", 2, 2)
	tr.BeginMiss(0, 0x1, false) // will be evicted while still open
	tr.BeginMiss(1, 0x2, false)
	tr.EndMiss(1, "cold", false)
	tr.BeginMiss(1, 0x3, false) // evicts span 1 (tile 0, still open)
	if tr.OpenSpans() != 1 {
		t.Fatalf("OpenSpans = %d, want 1 (evicted open span forgotten)", tr.OpenSpans())
	}
	tr.EndMiss(0, "cold", false) // no-op: its span is gone
	if tr.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", tr.Dropped())
	}
}

// chainSpan builds a span from (src, dst, flits) message triples laid
// out 20 cycles apart, for ChainHops tests.
func chainSpan(tile topo.Tile, hops ...[3]int) *Span {
	s := &Span{Tile: tile, closed: true}
	for i, h := range hops {
		at := sim.Time(20 * i)
		s.Hops = append(s.Hops, Hop{
			Src: topo.Tile(h[0]), Dst: topo.Tile(h[1]), Flits: h[2],
			Depart: at, Arrive: at + 10, Links: 1,
		})
	}
	return s
}

// TestChainHops pins the causal chain-depth computation on the shapes
// the paper's argument is made of.
func TestChainHops(t *testing.T) {
	const data = 5
	cases := []struct {
		name string
		s    *Span
		want int
	}{
		// DiCo prediction hit: request straight to supplier, data back.
		{"2-hop", chainSpan(0, [3]int{0, 4, 1}, [3]int{4, 0, data}), 2},
		// Directory: request → home → forward → owner, data back.
		{"3-hop", chainSpan(0, [3]int{0, 8, 1}, [3]int{8, 4, 1}, [3]int{4, 0, data}), 3},
		// Memory fetch: req → home → mem-read modeled as home round trip → data.
		{"4-hop", chainSpan(0, [3]int{0, 8, 1}, [3]int{8, 15, 1}, [3]int{15, 8, data}, [3]int{8, 0, data}), 4},
		// Parallel side traffic (invalidations) must not deepen the data chain.
		{"side-traffic", chainSpan(0,
			[3]int{0, 8, 1}, // request to home
			[3]int{8, 2, 1}, // inv to a sharer (parallel)
			[3]int{8, 3, 1}, // inv to a sharer (parallel)
			[3]int{8, 0, data}), 2},
		// No data return: fall back to the last control message to the requestor.
		{"ack-only", chainSpan(0, [3]int{0, 8, 1}, [3]int{8, 0, 1}), 2},
		// No message back at all: 0.
		{"no-return", chainSpan(0, [3]int{0, 8, 1}), 0},
	}
	for _, c := range cases {
		if got := c.s.ChainHops(data); got != c.want {
			t.Errorf("%s: ChainHops = %d, want %d", c.name, got, c.want)
		}
	}
	// Late hops are excluded even when they would otherwise extend the chain.
	s := chainSpan(0, [3]int{0, 4, 1}, [3]int{4, 0, data}, [3]int{4, 0, data})
	s.Hops[2].Late = true
	if got := s.ChainHops(data); got != 2 {
		t.Errorf("late hop changed chain: %d, want 2", got)
	}
}

// TestAnalyze checks the per-protocol hop report over a synthetic
// tracer: chain histogram, indirection share, retries, messages.
func TestAnalyze(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k, "directory", 16, 0)
	// Two 2-chains, one 3-chain, one retried.
	mk := func(tile topo.Tile, threeHop, retry bool) {
		tr.BeginMiss(tile, 0x100, false)
		tr.Message(tile, 8, 1, k.Now(), k.Now()+10, 2)
		if threeHop {
			tr.Message(8, 4, 1, k.Now()+10, k.Now()+20, 2)
			tr.Message(4, tile, 5, k.Now()+20, k.Now()+30, 2)
		} else {
			tr.Message(8, tile, 5, k.Now()+10, k.Now()+20, 2)
		}
		if retry {
			tr.Retry(tile)
		}
		tr.EndMiss(tile, "remote-l1", false)
	}
	mk(0, false, false)
	mk(1, false, true)
	mk(2, true, false)
	r := Analyze(tr, 5)
	if r.Spans != 3 || r.Chain[2] != 2 || r.Chain[3] != 1 {
		t.Fatalf("spans=%d chain2=%d chain3=%d, want 3/2/1", r.Spans, r.Chain[2], r.Chain[3])
	}
	if got := r.TwoHopShare(); got < 0.66 || got > 0.67 {
		t.Errorf("TwoHopShare = %v, want 2/3", got)
	}
	if got := r.IndirectionShare(); got < 0.33 || got > 0.34 {
		t.Errorf("IndirectionShare = %v, want 1/3", got)
	}
	if r.Retries != 1 || r.RetriedSpans != 1 {
		t.Errorf("retries = %d/%d, want 1/1", r.Retries, r.RetriedSpans)
	}
	if want := (2.0*2 + 3) / 3; r.MeanChain() != want {
		t.Errorf("MeanChain = %v, want %v", r.MeanChain(), want)
	}
	out := r.String()
	for _, needle := range []string{"directory", "2-hop", "3-hop"} {
		if !strings.Contains(out, needle) {
			t.Errorf("report missing %q:\n%s", needle, out)
		}
	}
	if ct := CompareTable(r, r).String(); !strings.Contains(ct, "indirection") {
		t.Errorf("compare table missing indirection column:\n%s", ct)
	}
}

// TestPerfettoRoundTrip exports a synthetic tracer and requires the
// validator to accept it and to see every span and hop.
func TestPerfettoRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k, "dico", 4, 0)
	tr.BeginMiss(0, 0x80, true)
	tr.Message(0, 2, 1, 0, 9, 2)
	tr.Annotate("predict-supplier", 0, 0x80)
	tr.Message(2, 0, 5, 9, 22, 2)
	tr.EndMiss(0, "remote-l1", false)
	tr.BeginMiss(1, 0x90, false) // left open: must NOT be exported

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidatePerfetto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported trace failed validation: %v\n%s", err, buf.String())
	}
	if sum.Spans != 1 || sum.Hops != 2 {
		t.Errorf("summary spans/hops = %d/%d, want 1/2", sum.Spans, sum.Hops)
	}
	if sum.ByPID[1] != "dico" {
		t.Errorf("pid 1 = %q, want dico", sum.ByPID[1])
	}
}

// TestPerfettoValidatorRejects feeds the validator traces violating
// each invariant and requires a loud failure naming the problem.
func TestPerfettoValidatorRejects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"malformed", `{"traceEvents": [`, "malformed"},
		{"empty", `{"traceEvents": []}`, "no events"},
		{"no-spans", `{"traceEvents": [{"name":"x","ph":"i","ts":1,"pid":1,"tid":0,"s":"t"}]}`, "no miss spans"},
		{"unknown-phase", `{"traceEvents": [{"name":"x","ph":"Q","ts":1,"pid":1,"tid":0}]}`, "unknown phase"},
		{"non-monotonic", `{"traceEvents": [
			{"name":"a","ph":"i","ts":10,"pid":1,"tid":0,"s":"t"},
			{"name":"b","ph":"i","ts":5,"pid":1,"tid":0,"s":"t"}]}`, "not monotonic"},
		{"unbalanced-async", `{"traceEvents": [
			{"name":"h","cat":"hop","ph":"b","ts":1,"pid":1,"tid":0,"id":"s1.h0"}]}`, "unbalanced"},
		{"end-without-begin", `{"traceEvents": [
			{"name":"h","cat":"hop","ph":"e","ts":1,"pid":1,"tid":0,"id":"s1.h0"}]}`, "without begin"},
		{"open-miss", `{"traceEvents": [
			{"name":"R miss","cat":"miss","ph":"X","ts":1,"pid":1,"tid":0}]}`, "no duration"},
		{"classless-miss", `{"traceEvents": [
			{"name":"R miss","cat":"miss","ph":"X","ts":1,"dur":5,"pid":1,"tid":0,"args":{}}]}`, "no class"},
		{"open-non-miss-slice", `{"traceEvents": [
			{"name":"R miss","cat":"miss","ph":"X","ts":1,"dur":5,"pid":1,"tid":0,"args":{"class":"local"}},
			{"name":"phase","cat":"kernel","ph":"X","ts":2,"pid":2,"tid":0}]}`, "no duration"},
	}
	for _, c := range cases {
		_, err := ValidatePerfetto(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s: validator accepted a broken trace", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// samplerFixture builds a kernel + mesh + counters sampler with a
// driving workload of n dummy events spread over cycles.
func samplerFixture(every sim.Time, cap int) (*sim.Kernel, *Sampler, *stats.Set) {
	k := sim.NewKernel(1)
	grid := topo.NewGrid(2, 2)
	net := mesh.New(k, grid, mesh.DefaultConfig())
	counters := &stats.Set{}
	// No test here reads the energy columns, so any prices do.
	energies := power.TileEnergies{Router: 4, Flit: 1}
	s := NewSampler(k, every, cap, counters, net, energies,
		func() uint64 { return k.EventsRun() })
	return k, s, counters
}

// runSampled drains the kernel in windows that end at the sampler's
// due cycle and ticks between windows: the shape of core's phase loop.
func runSampled(k *sim.Kernel, s *Sampler) {
	for k.Pending() > 0 {
		due := s.Due()
		k.RunUntil(func() bool { return k.Now() >= due })
		s.Tick()
	}
}

// TestSamplerTicks requires the sampler to snapshot once per interval
// boundary of each phase, add no kernel event, and leave the clock at
// the last work event.
func TestSamplerTicks(t *testing.T) {
	k, s, counters := samplerFixture(100, 0)
	counters.Inc("refs")
	work := func(any) { counters.Inc("refs") }
	// Phase 1: work until cycle 995.
	scheduled := 0
	for c := sim.Time(1); c <= 1000; c += 7 {
		k.AtArg(c, work, nil)
		scheduled++
	}
	s.SetPhase("warmup")
	runSampled(k, s)
	s.Snapshot() // fencepost
	n1 := len(s.Series().Samples)
	if n1 != 10 {
		t.Fatalf("phase 1 took %d samples, want 9 boundaries + the fencepost", n1)
	}
	if k.EventsRun() != uint64(scheduled) || k.Now() != 995 {
		t.Fatalf("sampled phase ran %d events to t=%d, want %d to t=995", k.EventsRun(), k.Now(), scheduled)
	}
	for i, smp := range s.Series().Samples[:n1-1] {
		if b := sim.Time(100 * (i + 1)); smp.Cycle < b || smp.Cycle >= b+7 {
			t.Errorf("sample %d at cycle %d, want the first event at or past %d", i, smp.Cycle, b)
		}
	}
	// Phase 2 restarts the clock from the phase start.
	start := k.Now()
	for c := start + 1; c <= start+500; c += 7 {
		k.AtArg(c, work, nil)
	}
	s.SetPhase("measure")
	if s.Due() != start+100 {
		t.Fatalf("phase 2 first due at %d, want %d", s.Due(), start+100)
	}
	runSampled(k, s)
	s.Snapshot()
	series := s.Series()
	if len(series.Samples) != n1+5 {
		t.Fatalf("phase 2 added %d samples, want 4 boundaries + the fencepost", len(series.Samples)-n1)
	}
	if series.Interval != 100 {
		t.Errorf("interval = %d, want 100", series.Interval)
	}
	sawMeasure := false
	for i, smp := range series.Samples {
		if i > 0 && smp.Cycle < series.Samples[i-1].Cycle {
			t.Fatalf("sample %d cycle %d before %d", i, smp.Cycle, series.Samples[i-1].Cycle)
		}
		if smp.Phase == "measure" {
			sawMeasure = true
		}
		if len(smp.Counters) > len(series.CounterNames) {
			t.Fatalf("sample %d has %d counters, names only %d", i, len(smp.Counters), len(series.CounterNames))
		}
	}
	if !sawMeasure {
		t.Error("no sample labeled measure")
	}
	last := series.Samples[len(series.Samples)-1]
	if last.Counters[0] == 0 || last.Refs == 0 {
		t.Errorf("final sample empty: counters[0]=%d refs=%d", last.Counters[0], last.Refs)
	}
}

// TestSamplerRingCap requires the sample ring to drop oldest past its
// cap and count the drops.
func TestSamplerRingCap(t *testing.T) {
	_, s, _ := samplerFixture(10, 4)
	for i := 0; i < 20; i++ {
		s.Snapshot()
	}
	series := s.Series()
	if len(series.Samples) != 4 {
		t.Fatalf("retained %d samples, want 4", len(series.Samples))
	}
	if series.Dropped != 16 {
		t.Errorf("dropped = %d, want 16", series.Dropped)
	}
}

// TestSamplerTickIdempotent requires Tick to take one sample per due
// boundary: a repeated Tick at the same cycle, or a window that
// overran several boundaries, yields a single sample.
func TestSamplerTickIdempotent(t *testing.T) {
	k, s, _ := samplerFixture(50, 0)
	s.SetPhase("measure")
	k.AtArg(500, func(any) {}, nil)
	k.Run(0) // one window across ten boundaries
	s.Tick()
	s.Tick()
	if n := len(s.Series().Samples); n != 1 {
		t.Fatalf("%d samples after two Ticks at one cycle, want 1", n)
	}
	if s.Due() != 550 {
		t.Errorf("next due %d after a tick at 500, want 550", s.Due())
	}
}
