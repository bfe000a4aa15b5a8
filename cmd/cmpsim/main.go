// Command cmpsim runs one simulation of the 64-tile consolidated CMP
// and reports performance, power and miss statistics. With -protocols
// it runs several protocols on the same workload concurrently (one
// worker per CPU) and reports each in turn plus a comparison summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.WarmupRefs = 40000
	shared := cli.New(flag.CommandLine, &cfg).Sim().Obs().Shards().Workers()
	flag.StringVar(&cfg.Protocol, "protocol", cfg.Protocol, "coherence protocol: directory | dico | providers | arin")
	protocols := flag.String("protocols", "", "comma-separated protocols to run concurrently and compare (overrides -protocol; 'all' = every protocol)")
	flag.StringVar(&cfg.Workload, "workload", cfg.Workload, "Table IV workload (e.g. apache4x16p, jbb4x16p, mixed-sci)")
	jsonOut := flag.String("json", "", "write an obs manifest (schema v3) with every run's full configuration and counters to this file")
	flag.Parse()
	shared.Finish()
	workers := &shared.WorkersN
	traceOut := &shared.TraceOut

	// Validate up front so a typoed flag fails with the valid choices
	// before any simulation starts.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(2)
	}

	cfgs := []core.Config{cfg}
	if *protocols != "" {
		names := strings.Split(*protocols, ",")
		if *protocols == "all" {
			names = core.ProtocolNames
		}
		cfgs = make([]core.Config, len(names))
		for i, p := range names {
			cfgs[i] = cfg
			cfgs[i].Protocol = strings.TrimSpace(p)
			if err := cfgs[i].Validate(); err != nil {
				fmt.Fprintln(os.Stderr, "cmpsim:", err)
				os.Exit(2)
			}
		}
	}
	systems := make([]*core.System, len(cfgs))
	results, err := exp.RunConfigs(cfgs, *workers, func(i int) {
		fmt.Fprintf(os.Stderr, "running %s / %s...\n", cfgs[i].Workload, cfgs[i].Protocol)
	}, func(i int, s *core.System) { systems[i] = s })
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(1)
	}
	for i, res := range results {
		report(cfgs[i], res, systems[i].Phases())
		if len(results) > 1 || i < len(results)-1 {
			fmt.Println()
		}
	}
	writeManifest(*jsonOut, results...)
	reportSpans(cfgs, systems, *traceOut)
	if len(results) > 1 {
		base := results[0]
		fmt.Printf("comparison (vs %s):\n", cfgs[0].Protocol)
		fmt.Printf("  %-12s %10s %10s %12s %12s\n", "protocol", "cycles", "perf", "power/cycle", "flit-links")
		for i, res := range results {
			fmt.Printf("  %-12s %10d %9.3fx %11.4g %12d\n",
				cfgs[i].Protocol, res.Cycles,
				res.Performance()/base.Performance(),
				res.PowerPerCycle(), res.Net.FlitLinkCrossing)
		}
	}
}

// reportSpans prints the hop-count analysis of every traced run and
// exports the Perfetto trace file.
func reportSpans(cfgs []core.Config, systems []*core.System, traceOut string) {
	var tracers []*telemetry.Tracer
	var reports []*telemetry.HopReport
	for i, s := range systems {
		if s.Tracer == nil {
			continue
		}
		tracers = append(tracers, s.Tracer)
		reports = append(reports, telemetry.Analyze(s.Tracer, cfgs[i].Net.DataFlits))
	}
	if len(tracers) == 0 {
		return
	}
	for _, r := range reports {
		fmt.Println()
		fmt.Print(r.String())
	}
	if len(reports) > 1 {
		fmt.Println()
		fmt.Print(telemetry.CompareTable(reports...).String())
	}
	if traceOut == "" {
		return
	}
	f, err := os.Create(traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(1)
	}
	if err := telemetry.WritePerfetto(f, tracers...); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(1)
	}
	spans := 0
	for _, t := range tracers {
		spans += len(t.Spans())
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d spans, %d protocols) — open in ui.perfetto.dev\n",
		traceOut, spans, len(tracers))
}

// writeManifest exports the finished runs as an obs manifest.
func writeManifest(path string, results ...*core.Result) {
	if path == "" {
		return
	}
	m := obs.New("cmpsim")
	for _, res := range results {
		m.Add(res)
	}
	if err := m.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d runs, schema v%d)\n", path, len(m.Runs), obs.SchemaVersion)
}

// report prints the full statistics block for one finished run and
// the host timing of its phases.
func report(cfg core.Config, res *core.Result, phases []core.PhaseStat) {
	pr := res.Profile
	misses := pr.TotalMisses()
	fmt.Printf("protocol         %s\n", cfg.Protocol)
	fmt.Printf("workload         %s (alt=%v dedup=%v)\n", cfg.Workload, cfg.AltPlacement, cfg.Dedup)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("references       %d (%.2f per cycle)\n", res.Refs, res.Performance())
	fmt.Printf("L1 miss rate     %.4f\n", float64(misses)/float64(misses+pr.Hits))
	fmt.Printf("memory fetches   %d (%.1f%% of misses)\n", res.MemReads, res.L2MissRatio()*100)
	fmt.Printf("dedup savings    %.1f%%\n", res.DedupSavings*100)
	if cfg.Check {
		fmt.Printf("coherence check  passed (shadow memory + invariants)\n")
	}
	fmt.Printf("dynamic power    %.4g pJ/cycle (cache %.4g, network %.4g)\n",
		res.PowerPerCycle(), res.CachePowerPerCycle(), res.NetworkPowerPerCycle())
	fmt.Printf("network          %d msgs, %d flit-links, %d router traversals\n",
		res.Net.Messages, res.Net.FlitLinkCrossing, res.Net.RouterTraversals)
	fmt.Println("miss breakdown:")
	for c := 0; c < int(proto.NumMissClasses); c++ {
		if pr.Count[c] == 0 {
			continue
		}
		fmt.Printf("  %-16s %8d (%.1f%%)  %.1f links avg\n",
			proto.MissClassNames[c], pr.Count[c],
			float64(pr.Count[c])/float64(misses)*100,
			pr.MeanLinks(proto.MissClass(c)))
	}
	fmt.Println("phases:")
	for _, ph := range phases {
		wallMS := float64(ph.WallNS) / 1e6
		fmt.Printf("  %-10s %8d refs, %10d cycles, %10d events, %8.1f ms wall (%.0f refs/s)\n",
			ph.Name, ph.Refs, ph.Cycles, ph.Events, wallMS, float64(ph.Refs)/(wallMS/1000))
	}
	fmt.Println("power events:")
	for _, name := range []string{
		power.EvL1TagRead, power.EvL1DataRead, power.EvL1DataWrite,
		power.EvL2TagRead, power.EvL2DataRead, power.EvL2DataWrite,
		power.EvDirRead, power.EvL1CAccess, power.EvL2CAccess,
	} {
		if v := res.Counters.Value(name); v > 0 {
			fmt.Printf("  %-16s %d\n", name, v)
		}
	}
	if len(res.PerVM) > 0 {
		var lat sim.Hist
		for i := range res.PerVM {
			lat.Merge(&res.PerVM[i].MissLatency)
		}
		fmt.Printf("miss latency     mean %.1f cycles, max %d (%d misses timed)\n",
			lat.Mean(), lat.Max, lat.Count)
		fmt.Println()
		t := stats.NewTable(fmt.Sprintf("per-VM attribution (%s)", cfg.Protocol),
			"vm", "tiles", "refs", "cache pJ", "net pJ", "miss p50", "p99", "p999")
		for i := range res.PerVM {
			v := &res.PerVM[i]
			t.AddRow(fmt.Sprint(v.VM), fmt.Sprint(v.Tiles), fmt.Sprint(v.Refs),
				fmt.Sprintf("%.4g", v.Breakdown.CacheTotal()),
				fmt.Sprintf("%.4g", v.Breakdown.Link+v.Breakdown.Routing),
				fmt.Sprint(v.P50), fmt.Sprint(v.P99), fmt.Sprint(v.P999))
		}
		fmt.Print(t)
	}
}
