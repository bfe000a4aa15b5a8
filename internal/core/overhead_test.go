package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// overheadConfigs returns the plain and the armed (full observability
// surface: per-VM attribution plus epoch sampling) configurations the
// observability-overhead gate compares.
func overheadConfigs() (plain, armed Config) {
	plain = DefaultConfig()
	plain.RefsPerCore = 1000
	plain.WarmupRefs = 2000
	armed = plain
	armed.PerVM = true
	armed.SampleEvery = 2000
	return plain, armed
}

// BenchmarkObservabilityOverhead is the observability-overhead gate.
// For each protocol it runs pairs of one plain and one armed system,
// built outside the timer (setup is covered by TestArmedSetupAllocs),
// through their warmup and measured phases. The two runs of a pair are
// interleaved in slices of simulated time (see interleave), so they
// share the host's conditions slice by slice, and the pair's ratio
// armed/plain cancels the drift both see. The gate takes the median
// over the pairs: at most 10% overhead per protocol and in total (the
// total ratio of pair i sums pair i over the protocols). Arming must
// not change the simulated result. One invocation is a complete
// measurement:
//
//	go test -run '^$' -bench ObservabilityOverhead -benchtime 1x ./internal/core
func BenchmarkObservabilityOverhead(b *testing.B) {
	const (
		pairs = 15 // per protocol
		bound = 0.10
	)
	plain, armed := overheadConfigs()

	n := pairs * b.N
	plainSum, armedSum := make([]time.Duration, n), make([]time.Duration, n)
	var over []string // rows past the bound, reported together once every row is measured
	row := func(name string, ratios []float64) {
		sort.Float64s(ratios)
		q := func(f float64) float64 { return ratios[int(f*float64(len(ratios)-1)+0.5)] - 1 }
		overhead := q(0.5)
		b.ReportMetric(overhead, name+"_overhead")
		b.Logf("%-10s overhead median %+.1f%% (quartiles %+.1f%% .. %+.1f%%, %d pairs)",
			name, overhead*100, q(0.25)*100, q(0.75)*100, len(ratios))
		if overhead > bound {
			over = append(over, fmt.Sprintf("%s %+.1f%%", name, overhead*100))
		}
	}
	for _, p := range ProtocolNames {
		plain.Protocol, armed.Protocol = p, p
		ratios := make([]float64, n)
		for i := range ratios {
			var sys [2]*System // plain, armed
			for arm, cfg := range [2]Config{plain, armed} {
				s, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sys[arm] = s
			}
			runtime.GC()
			first := i % 2 // the arm holding the baton first alternates
			wall, res, err := interleave([2]*System{sys[first], sys[1-first]}, overheadSlice)
			if first == 1 {
				wall[0], wall[1] = wall[1], wall[0]
				res[0], res[1] = res[1], res[0]
			}
			if err != nil {
				b.Fatalf("%s: %v", p, err)
			}
			if res[1].PerVM == nil || res[1].Series == nil {
				b.Fatalf("%s: armed run carries no per-VM stats or series", p)
			}
			// The interleaving's slice events are the only extra kernel
			// events (the observers add none), so the event count is the
			// one field the fingerprints may differ in.
			fp0, fp1 := fingerprintRun(res[0]), fingerprintRun(res[1])
			fp0.Events, fp1.Events = 0, 0
			if !reflect.DeepEqual(fp0, fp1) {
				b.Fatalf("%s: armed run diverged from the plain run (cycles, counters, net or miss profile)", p)
			}
			ratios[i] = float64(wall[1]) / float64(wall[0])
			plainSum[i] += wall[0]
			armedSum[i] += wall[1]
		}
		row(p, ratios)
	}
	total := make([]float64, n)
	for i := range total {
		total[i] = float64(armedSum[i]) / float64(plainSum[i])
	}
	row("total", total)
	if len(over) > 0 {
		b.Fatalf("observability overhead over %.0f%%: %s", bound*100, strings.Join(over, ", "))
	}
}

// overheadSlice is the simulated time a system of an interleaved pair
// runs before handing over: about a millisecond of host time, so the
// two runs alternate some hundred times and see the same host.
const overheadSlice sim.Time = 4000

// interleave runs the warmup and measured phases of two systems on two
// goroutines that hand a baton back and forth, every slice cycles of
// each system's simulated time, until both finish; sys[0] starts. A
// slice event on each kernel does the handover; it touches no model
// state, so both results are those of an uninterrupted run, with more
// kernel events. It returns the wall time each system held the baton,
// and the results.
func interleave(sys [2]*System, slice sim.Time) (wall [2]time.Duration, res [2]*Result, err error) {
	baton := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var finished [2]bool // read and written only by the baton holder
	var errs [2]error
	var wg sync.WaitGroup
	for i := range sys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, k := sys[i], sys[i].Kernel
			<-baton[i]
			start := time.Now()
			var handover func(any)
			handover = func(any) {
				wall[i] += time.Since(start)
				if !finished[1-i] {
					baton[1-i] <- struct{}{}
					<-baton[i]
				}
				start = time.Now()
				// Re-arm only while the phase has references to issue:
				// a chain that outlived the phase would never drain.
				if s.phaseDone < s.Cfg.Tiles {
					k.AfterArg(slice, handover, nil)
				}
			}
			k.AfterArg(slice, handover, nil)
			errs[i] = s.RunWarmup()
			if errs[i] == nil {
				k.AfterArg(slice, handover, nil)
				res[i], errs[i] = s.RunMeasure()
			}
			wall[i] += time.Since(start)
			finished[i] = true
			if !finished[1-i] {
				baton[1-i] <- struct{}{}
			}
		}(i)
	}
	baton[0] <- struct{}{}
	wg.Wait()
	return wall, res, errors.Join(errs[0], errs[1])
}

// setupAlloc returns the bytes NewSystem(cfg) allocates.
func setupAlloc(t *testing.T, cfg Config) uint64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s, err := NewSystem(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestArmedSetupAllocs is the setup half of the observability-overhead
// gate, which times only the run phases: building a system with the
// full observability surface armed may allocate no more than building
// the plain one plus the observers themselves — the sampler (its ring
// grows with the samples it takes, so it starts empty), the per-VM
// counter banks and the per-VM histograms, about 10 KiB at 4 VMs. The
// 32 KiB budget leaves headroom for those and catches any observer
// that sizes a structure by the chip (a per-VM copy of a per-tile
// array is already ~100 KiB).
func TestArmedSetupAllocs(t *testing.T) {
	const budget = 32 << 10
	plain, armed := overheadConfigs()
	for _, p := range ProtocolNames {
		plain.Protocol, armed.Protocol = p, p
		pb, ab := setupAlloc(t, plain), setupAlloc(t, armed)
		if ab > pb+budget {
			t.Errorf("%s: armed NewSystem allocates %d B, plain %d B: %d B over, budget %d B",
				p, ab, pb, ab-pb, budget)
		}
	}
}
