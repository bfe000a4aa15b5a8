// Command experiments regenerates the paper's evaluation figures by
// running the full protocol x workload simulation matrix, and prints
// the analytic tables. Use -fig to select one artifact, -quick for a
// fast pass, and -alt for the Figure 6 alternative placement.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/obs"
)

func main() {
	opt := exp.DefaultOptions()
	shared := cli.New(flag.CommandLine, &opt.Base).Sim().Obs().Shards().Workers()
	fig := flag.String("fig", "all", "artifact: 5, 6, 7t (tables), 7, 8a, 8b, 9a, 9b, hops or all")
	quick := flag.Bool("quick", false, "fast pass (fewer references per core; explicit -refs/-warmup win)")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all)")
	out := flag.String("out", "", "write the sweep as an obs manifest (schema v3) to <dir>/matrix.json; cmd/tables -from regenerates every figure from it without re-simulating")
	flag.Parse()
	shared.Finish()

	// Analytic artifacts need no simulation.
	switch *fig {
	case "5":
		fmt.Print(exp.Table5())
		return
	case "6":
		fmt.Print(exp.Table6())
		return
	case "7t":
		for _, t := range exp.Table7() {
			fmt.Print(t)
			fmt.Println()
		}
		return
	}

	// -quick lowers the budget but yields to explicit -refs/-warmup.
	if *quick {
		if !cli.Changed(flag.CommandLine, "refs") {
			opt.Base.RefsPerCore = 8000
		}
		if !cli.Changed(flag.CommandLine, "warmup") {
			opt.Base.WarmupRefs = 20000
		}
	}
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}
	opt.Workers = shared.WorkersN
	m, err := exp.Run(opt, func(wl, p string) {
		fmt.Fprintf(os.Stderr, "running %s / %s...\n", wl, p)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		path := filepath.Join(*out, "matrix.json")
		if err := obs.FromMatrix("experiments", m).WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d runs, schema v%d)\n", path, len(m.Workloads)*4, obs.SchemaVersion)
	}

	show := func(name string, render func() fmt.Stringer) {
		if *fig == "all" || *fig == name {
			fmt.Print(render())
			fmt.Println()
		}
	}
	show("7", func() fmt.Stringer { return m.Figure7() })
	show("8a", func() fmt.Stringer { return m.Figure8a() })
	show("8b", func() fmt.Stringer { return m.Figure8b() })
	show("9a", func() fmt.Stringer { return m.Figure9a() })
	show("9b", func() fmt.Stringer { return m.Figure9b() })
	show("hops", func() fmt.Stringer { return m.LinkAnalysis() })
	if *fig == "all" || *fig == "hops" {
		for _, cfg := range []struct{ tiles, areas int }{{64, 4}, {256, 64}} {
			ind, dir, short := exp.TheoreticalDistances(cfg.tiles, cfg.areas)
			fmt.Printf("theoretical links (%d tiles, %d areas): indirect %.1f, direct %.1f, shortened %.1f\n",
				cfg.tiles, cfg.areas, ind, dir, short)
		}
	}
	if *fig == "all" {
		fmt.Print(exp.Table5())
		fmt.Println()
		fmt.Print(exp.Table6())
		fmt.Println()
		for _, t := range exp.Table7() {
			fmt.Print(t)
			fmt.Println()
		}
	}
}
