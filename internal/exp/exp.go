// Package exp regenerates the paper's evaluation artifacts: Tables V,
// VI and VII (analytic) and Figures 7, 8a, 8b, 9a and 9b plus the
// Section V-D link analysis (simulation).
package exp

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Options parameterize a full evaluation sweep. Base carries the
// shared simulation configuration; the sweep only varies Workload and
// Protocol across it.
type Options struct {
	Workloads []string
	// Base is the configuration every matrix cell derives from
	// (protocol and workload are overwritten per cell). Zero-value
	// Base (Tiles == 0) falls back to core.DefaultConfig. Base is the
	// single source of simulation parameters: the old top-level
	// pass-through fields (RefsPerCore, WarmupRefs, Seed, AltPlacement,
	// Dedup) are gone, along with their override-precedence rules.
	Base core.Config

	// Workers bounds how many simulations run concurrently. Every
	// (workload, protocol) run owns its kernel, chip and RNG, so the
	// sweep parallelizes without sharing; results are identical to a
	// serial sweep for a given seed. 0 means runtime.GOMAXPROCS(0);
	// 1 runs the cells one at a time.
	Workers int
}

// DefaultOptions runs every Table IV workload at a laptop-scale budget.
func DefaultOptions() Options {
	base := core.DefaultConfig()
	base.RefsPerCore = 25000
	base.WarmupRefs = 60000
	return Options{
		Workloads: workload.Names,
		Base:      base,
	}
}

// config builds the core.Config for one cell of the sweep matrix:
// Base (or core.DefaultConfig when Base is zero) with the cell's
// workload and protocol.
func (opt Options) config(wl, protocol string) core.Config {
	cfg := opt.Base
	if cfg.Tiles == 0 {
		cfg = core.DefaultConfig()
	}
	cfg.Protocol = protocol
	cfg.Workload = wl
	return cfg
}

// Matrix holds one result per (workload, protocol).
type Matrix struct {
	Workloads []string
	Results   map[string]map[string]*core.Result // workload -> protocol
}

// Run executes the full sweep, fanning the (workload, protocol) matrix
// out over opt.Workers goroutines. progress (optional) is called
// before each run, in matrix order, never concurrently. Result
// assembly is deterministic: each run writes only its own matrix cell,
// and on error the first failure in matrix order is reported.
func Run(opt Options, progress func(workload, protocol string)) (*Matrix, error) {
	type job struct{ wl, protocol string }
	jobs := make([]job, 0, len(opt.Workloads)*len(core.ProtocolNames))
	cfgs := make([]core.Config, 0, cap(jobs))
	for _, wl := range opt.Workloads {
		for _, p := range core.ProtocolNames {
			jobs = append(jobs, job{wl, p})
			cfgs = append(cfgs, opt.config(wl, p))
		}
	}
	var onStart func(i int)
	if progress != nil {
		onStart = func(i int) { progress(jobs[i].wl, jobs[i].protocol) }
	}
	results, err := RunConfigs(cfgs, opt.Workers, onStart, nil)
	if err != nil {
		return nil, err
	}
	m := &Matrix{Workloads: opt.Workloads, Results: map[string]map[string]*core.Result{}}
	for i, j := range jobs {
		if m.Results[j.wl] == nil {
			m.Results[j.wl] = map[string]*core.Result{}
		}
		m.Results[j.wl][j.protocol] = results[i]
	}
	return m, nil
}

// RunConfigs executes arbitrary configurations on one worker pool of
// workers goroutines (0 means runtime.GOMAXPROCS(0)): configuration
// i's result lands in slot i, bit-identical to an individual core.Run.
// Every configuration is validated before anything runs. progress
// (optional) is called with the index of each run as a worker claims
// it, in slice order; onSystem (optional) observes each built system
// before its run starts, so callers can keep the system.
// Neither hook is ever called concurrently. The first error in slice
// order wins.
func RunConfigs(cfgs []core.Config, workers int, progress func(i int), onSystem func(i int, s *core.System)) ([]*core.Result, error) {
	results := make([]*core.Result, len(cfgs))
	fail := func(i int, err error) ([]*core.Result, error) {
		return nil, fmt.Errorf("config %d (%s/%s): %w", i, cfgs[i].Workload, cfgs[i].Protocol, err)
	}

	// Validate everything first, so a sweep with a bad cell fails
	// before any simulation.
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return fail(i, err)
		}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cfgs))
	// mu serializes the claims and both hooks. A run's progress report
	// is made inside its claim's critical section, so reports follow
	// slice order even with many workers.
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	errs := make([]error, len(cfgs))
	run := func(i int) {
		s, err := core.NewSystem(cfgs[i])
		if err != nil {
			errs[i] = err
			return
		}
		if onSystem != nil {
			mu.Lock()
			onSystem(i, s)
			mu.Unlock()
		}
		results[i], errs[i] = s.Run()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(cfgs) {
					mu.Unlock()
					return
				}
				i := next
				next++
				if progress != nil {
					progress(i)
				}
				mu.Unlock()
				run(i)
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return fail(i, err)
		}
	}
	return results, nil
}

// paperChip returns the analytic model's geometry of the paper's
// evaluated chip: Table III's tile on 64 tiles in 4 areas.
func paperChip() storage.Config { return proto.DefaultConfig().Storage(64, 4) }

// Table5 renders the per-tile storage breakdown (Table V).
func Table5() *stats.Table {
	cfg := paperChip()
	t := stats.NewTable("Table V: per-tile coherence storage (64 tiles, 4 areas)",
		"protocol", "structure", "entry bits", "entries", "KB", "overhead")
	for _, s := range storage.DataStructures(cfg) {
		t.AddRow("(data)", s.Name, fmt.Sprint(s.EntryBits), fmt.Sprint(s.Entries),
			fmt.Sprintf("%.2f", s.KB()), "")
	}
	for _, p := range storage.All {
		oh := storage.Overhead(p, cfg)
		for i, s := range storage.CoherenceStructures(p, cfg) {
			ohCell := ""
			if i == 0 {
				ohCell = fmt.Sprintf("%.2f%%", oh*100)
			}
			t.AddRow(p.String(), s.Name, fmt.Sprint(s.EntryBits), fmt.Sprint(s.Entries),
				fmt.Sprintf("%.2f", s.KB()), ohCell)
		}
	}
	return t
}

// Table6 renders the per-tile leakage power (Table VI).
func Table6() *stats.Table {
	cfg := paperChip()
	m := power.DefaultLeakage(cfg)
	dirTotal, dirTag := m.TileLeakage(storage.Directory, cfg)
	t := stats.NewTable("Table VI: leakage power of the caches per tile",
		"protocol", "total mW", "vs directory", "tag mW", "vs directory")
	for _, p := range storage.All {
		total, tag := m.TileLeakage(p, cfg)
		t.AddRow(p.String(),
			fmt.Sprintf("%.0f", total),
			fmt.Sprintf("%+.0f%%", (total-dirTotal)/dirTotal*100),
			fmt.Sprintf("%.0f", tag),
			fmt.Sprintf("%+.0f%%", (tag-dirTag)/dirTag*100))
	}
	return t
}

// Table7 renders the storage-overhead sweep (Table VII).
func Table7() []*stats.Table {
	var tables []*stats.Table
	for _, cores := range []int{64, 128, 256, 512, 1024} {
		sweep, areas := storage.OverheadSweep(paperChip(), cores)
		headers := []string{"protocol"}
		for _, a := range areas {
			headers = append(headers, fmt.Sprintf("%d areas", a))
		}
		t := stats.NewTable(fmt.Sprintf("Table VII: storage overhead, %d cores", cores), headers...)
		for _, p := range storage.All {
			row := []string{p.String()}
			for _, v := range sweep[p] {
				row = append(row, fmt.Sprintf("%.1f%%", v*100))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

// Figure7 renders total dynamic power per workload and protocol,
// normalized to the directory's cache dynamic power (the paper's
// normalization), broken into cache, network links and routing.
func (m *Matrix) Figure7() *stats.Table {
	t := stats.NewTable("Figure 7: normalized dynamic power (cache + links + routing)",
		"workload", "protocol", "cache", "links", "routing", "total", "vs directory")
	for _, wl := range m.Workloads {
		base := m.Results[wl]["directory"]
		den := base.CachePowerPerCycle()
		for _, p := range core.ProtocolNames {
			r := m.Results[wl][p]
			cyc := float64(r.Cycles)
			cache := r.Breakdown.CacheTotal() / cyc / den
			links := r.Breakdown.Link / cyc / den
			routing := r.Breakdown.Routing / cyc / den
			total := cache + links + routing
			baseTotal := base.PowerPerCycle() / den
			t.AddRow(wl, p,
				fmt.Sprintf("%.3f", cache),
				fmt.Sprintf("%.3f", links),
				fmt.Sprintf("%.3f", routing),
				fmt.Sprintf("%.3f", total),
				fmt.Sprintf("%+.1f%%", (total-baseTotal)/baseTotal*100))
		}
	}
	return t
}

// Figure8a renders the cache dynamic power breakdown by event class,
// normalized per workload to the directory's cache power.
func (m *Matrix) Figure8a() *stats.Table {
	headers := append([]string{"workload", "protocol"}, power.CacheClasses...)
	t := stats.NewTable("Figure 8a: normalized cache dynamic power by event class", headers...)
	for _, wl := range m.Workloads {
		den := m.Results[wl]["directory"].CachePowerPerCycle()
		for _, p := range core.ProtocolNames {
			r := m.Results[wl][p]
			row := []string{wl, p}
			for _, cls := range power.CacheClasses {
				row = append(row, fmt.Sprintf("%.3f", r.Breakdown.Cache[cls]/float64(r.Cycles)/den))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Figure8b renders the network dynamic power (links vs routing),
// normalized per workload to the directory's network power.
func (m *Matrix) Figure8b() *stats.Table {
	t := stats.NewTable("Figure 8b: normalized network dynamic power",
		"workload", "protocol", "links", "routing", "total", "vs directory")
	for _, wl := range m.Workloads {
		den := m.Results[wl]["directory"].NetworkPowerPerCycle()
		for _, p := range core.ProtocolNames {
			r := m.Results[wl][p]
			cyc := float64(r.Cycles)
			links := r.Breakdown.Link / cyc / den
			routing := r.Breakdown.Routing / cyc / den
			t.AddRow(wl, p,
				fmt.Sprintf("%.3f", links),
				fmt.Sprintf("%.3f", routing),
				fmt.Sprintf("%.3f", links+routing),
				fmt.Sprintf("%+.1f%%", (links+routing-1)*100))
		}
	}
	return t
}

// Figure9a renders performance normalized to the directory (bigger is
// better).
func (m *Matrix) Figure9a() *stats.Table {
	t := stats.NewTable("Figure 9a: performance normalized to directory (bigger is better)",
		"workload", "directory", "dico", "providers", "arin")
	for _, wl := range m.Workloads {
		base := m.Results[wl]["directory"].Performance()
		row := []string{wl}
		for _, p := range core.ProtocolNames {
			row = append(row, fmt.Sprintf("%.3f", m.Results[wl][p].Performance()/base))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure9b renders the L1-miss breakdown into the six prediction
// categories (fractions of all misses).
func (m *Matrix) Figure9b() *stats.Table {
	headers := []string{"workload", "protocol"}
	for _, n := range proto.MissClassNames {
		headers = append(headers, n)
	}
	t := stats.NewTable("Figure 9b: L1 miss breakdown by prediction category", headers...)
	for _, wl := range m.Workloads {
		for _, p := range core.ProtocolNames {
			r := m.Results[wl][p]
			total := float64(r.Profile.TotalMisses())
			row := []string{wl, p}
			for c := 0; c < int(proto.NumMissClasses); c++ {
				row = append(row, fmt.Sprintf("%.3f", float64(r.Profile.Count[c])/total))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// LinkAnalysis reproduces Section V-D's shortened-miss numbers: the
// mean links traversed per miss class, against the theoretical mesh
// distances.
func (m *Matrix) LinkAnalysis() *stats.Table {
	t := stats.NewTable("Section V-D: links traversed per miss (measured)",
		"workload", "protocol", "pred-owner", "pred-provider", "all misses")
	for _, wl := range m.Workloads {
		for _, p := range core.ProtocolNames {
			r := m.Results[wl][p]
			var totLinks, totCnt uint64
			for c := 0; c < int(proto.NumMissClasses); c++ {
				totLinks += r.Profile.Links[c]
				totCnt += r.Profile.Count[c]
			}
			all := 0.0
			if totCnt > 0 {
				all = float64(totLinks) / float64(totCnt)
			}
			t.AddRow(wl, p,
				fmt.Sprintf("%.1f", r.Profile.MeanLinks(proto.MissPredOwner)),
				fmt.Sprintf("%.1f", r.Profile.MeanLinks(proto.MissPredProvider)),
				fmt.Sprintf("%.1f", all))
		}
	}
	return t
}

// TheoreticalDistances reproduces the paper's closing projection of
// Section V-D: mean link counts for indirect, direct and in-area
// shortened misses on n-tile chips with the given area sizes.
func TheoreticalDistances(tiles, areas int) (indirect, direct, shortened float64) {
	grid := topo.SquareGrid(tiles)
	mean := mesh.MeanDistance(grid)
	ar := topo.MustAreas(grid, areas)
	// Mean distance within one area.
	areaTiles := ar.TilesIn(0)
	tot, n := 0, 0
	for _, a := range areaTiles {
		for _, b := range areaTiles {
			if a != b {
				tot += grid.Hops(a, b)
				n++
			}
		}
	}
	inArea := float64(tot) / float64(n)
	return 3 * mean, 2 * mean, 2 * inArea
}
