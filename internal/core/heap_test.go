package core

import (
	"runtime"
	"testing"
)

// TestSystemHeapBound pins the live heap each engine's chip holds once
// built: jbb4x16p at the benchmark's 8000 + 8000 references per core,
// measured as the heap growth across NewSystem with a GC on either side
// and the system still reachable. Almost all of it is cache ways (a
// 64-tile chip has 1,179,648 L1 and L2 ways plus the directory or
// pointer caches), so a way that grows by a few bytes shows here.
func TestSystemHeapBound(t *testing.T) {
	const boundMB = 38 // measured: 32.4 (directory) and 36.4 MB (DiCo family)
	for _, p := range ProtocolNames {
		cfg := smallCfg(p, "jbb4x16p")
		cfg.WarmupRefs, cfg.RefsPerCore = 8000, 8000
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s)
		mb := float64(ms.HeapAlloc-before) / 1e6
		t.Logf("%s: %.1f MB live after NewSystem", p, mb)
		if mb > boundMB {
			t.Errorf("%s: %.1f MB live after NewSystem, bound %d MB", p, mb, boundMB)
		}
	}
}

// TestRunHeapBound pins what a chip's live heap gains by running:
// jbb4x16p at the benchmark's 8000 + 8000 references per core, measured
// as the heap growth from after NewSystem to after RunWarmup and
// RunMeasure, with a GC before each reading. The arrays are fixed at
// construction and the transaction records and message nodes recycle,
// so what could grow with run length is the homes' ownership-stamp
// tables; they hold only the blocks updated within one mesh latency
// horizon (proto.stampTable), where an unpurged table keeps every block
// ever updated (about 8 MB on the directory at this length).
func TestRunHeapBound(t *testing.T) {
	const boundMB = 1.0
	for _, p := range ProtocolNames {
		cfg := smallCfg(p, "jbb4x16p")
		cfg.WarmupRefs, cfg.RefsPerCore = 8000, 8000
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		if err := s.RunWarmup(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunMeasure(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s)
		mb := (float64(ms.HeapAlloc) - float64(before)) / 1e6
		t.Logf("%s: live heap grew %.2f MB across warmup and measure", p, mb)
		if mb > boundMB {
			t.Errorf("%s: live heap grew %.2f MB across warmup and measure, bound %.0f MB", p, mb, boundMB)
		}
	}
}
