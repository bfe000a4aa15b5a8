package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// BenchmarkObservabilityOverhead is the observability-overhead gate:
// for each protocol it times the default workload plain and with the
// full observability surface armed (per-VM attribution plus epoch
// sampling), interleaved in one process with the first arm alternating,
// and keeps each arm's best wall clock. Arming must not change the
// simulated result, and the best armed run may cost at most 10% more
// than the best plain run, per protocol and in total. One invocation is
// a complete measurement:
//
//	go test -run '^$' -bench ObservabilityOverhead -benchtime 1x ./internal/core
func BenchmarkObservabilityOverhead(b *testing.B) {
	const (
		runs  = 9 // per arm and protocol, best kept
		bound = 0.10
	)
	plain := DefaultConfig()
	plain.RefsPerCore = 1000
	plain.WarmupRefs = 2000
	armed := plain
	armed.PerVM = true
	armed.SampleEvery = 2000

	// timed runs cfg behind a GC barrier and returns its wall clock and
	// deterministic fingerprint. Sampler ticks are kernel events, so the
	// event count is the one field arming may change.
	timed := func(cfg Config) (time.Duration, protoFingerprint) {
		runtime.GC()
		start := time.Now()
		res, err := Run(cfg)
		wall := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if cfg.PerVM && (res.PerVM == nil || res.Series == nil) {
			b.Fatalf("%s: armed run carries no per-VM stats or series", cfg.Protocol)
		}
		fp := fingerprintRun(res)
		fp.Events = 0
		return wall, fp
	}

	var plainTotal, armedTotal time.Duration
	var over []string // rows past the bound, reported together once every row is measured
	row := func(name string, plain, armed time.Duration) {
		overhead := float64(armed)/float64(plain) - 1
		b.ReportMetric(overhead, name+"_overhead")
		b.Logf("%-10s plain %v armed %v overhead %+.1f%%", name, plain, armed, overhead*100)
		if overhead > bound {
			over = append(over, fmt.Sprintf("%s %+.1f%%", name, overhead*100))
		}
	}
	for _, p := range ProtocolNames {
		plain.Protocol, armed.Protocol = p, p
		var best [2]time.Duration
		var want protoFingerprint
		for i := 0; i < runs*b.N; i++ {
			for j := 0; j < 2; j++ {
				arm := (i + j) % 2 // 0 plain, 1 armed; the first arm alternates
				cfg := plain
				if arm == 1 {
					cfg = armed
				}
				wall, fp := timed(cfg)
				if want.Counters == nil {
					want = fp
				} else if !reflect.DeepEqual(fp, want) {
					b.Fatalf("%s: armed run diverged from the plain run (cycles, counters, net or miss profile)", p)
				}
				if best[arm] == 0 || wall < best[arm] {
					best[arm] = wall
				}
			}
		}
		plainTotal += best[0]
		armedTotal += best[1]
		row(p, best[0], best[1])
	}
	row("total", plainTotal, armedTotal)
	if len(over) > 0 {
		b.Fatalf("observability overhead over %.0f%%: %s", bound*100, strings.Join(over, ", "))
	}
}
