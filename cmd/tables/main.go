// Command tables prints the analytic tables of the paper — Table V
// (per-tile coherence storage), Table VI (leakage power) and Table VII
// (storage overhead versus cores and areas) — and, given a saved obs
// manifest (-from), regenerates the simulation figures from it with
// zero re-simulation: the decoder restores bit-identical counters, so
// the rendered figures match a live run byte for byte. With -series it
// plots the warmup-vs-steady-state curves of a manifest's epoch time
// series (schema v2), and with -validate-trace it checks an exported
// Perfetto trace file against the CI invariants.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	table := flag.String("table", "all", "analytic table to print: 5, 6, 7 or all")
	from := flag.String("from", "", "obs manifest (file, or directory containing matrix.json) to regenerate figures from")
	fig := flag.String("fig", "all", "with -from: figure to regenerate: 7, 8a, 8b, 9a, 9b, hops, pervm or all (pervm reads the per-run schema v3 field and accepts partial-matrix manifests)")
	validate := flag.String("validate", "", "decode the given manifest, verify every run record round-trips (schema, valid config, counters, breakdown), and exit")
	series := flag.String("series", "", "obs manifest to plot epoch time-series curves from (runs recorded with cmpsim -sample)")
	validateTrace := flag.String("validate-trace", "", "validate the given Perfetto trace-event JSON (well-formed, monotonic timestamps, balanced async pairs, all spans closed) and exit")
	flag.Parse()

	if *validateTrace != "" {
		f, err := os.Open(*validateTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		sum, err := telemetry.ValidatePerfetto(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		protos := make([]string, 0, len(sum.ByPID))
		for _, name := range sum.ByPID {
			protos = append(protos, name)
		}
		fmt.Printf("%s: ok (%d events, %d spans, %d hops, protocols: %s)\n",
			*validateTrace, sum.Events, sum.Spans, sum.Hops, strings.Join(protos, ", "))
		return
	}

	if *series != "" {
		m, err := readManifest(*series)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		if !plotSeries(m) {
			fmt.Fprintln(os.Stderr, "tables: no run in the manifest carries a time series (record one with cmpsim -sample N -json)")
			os.Exit(1)
		}
		return
	}

	if *validate != "" {
		m, err := readManifest(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok (%d runs, schema v%d, written by %s@%s)\n",
			*validate, len(m.Runs), m.Schema, m.Tool, m.Revision)
		return
	}

	if *from != "" {
		m, err := readManifest(*from)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		// The per-run schema v3 view needs no full matrix: a cmpsim
		// single-run manifest renders too.
		if *fig == "pervm" {
			if !showPerVM(m) {
				fmt.Fprintln(os.Stderr, "tables: no run in the manifest carries per-VM attribution (record one with cmpsim -pervm -json)")
				os.Exit(1)
			}
			return
		}
		mx, err := m.Matrix()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		show := func(name string, render func() fmt.Stringer) {
			if *fig == "all" || *fig == name {
				fmt.Print(render())
				fmt.Println()
			}
		}
		show("7", func() fmt.Stringer { return mx.Figure7() })
		show("8a", func() fmt.Stringer { return mx.Figure8a() })
		show("8b", func() fmt.Stringer { return mx.Figure8b() })
		show("9a", func() fmt.Stringer { return mx.Figure9a() })
		show("9b", func() fmt.Stringer { return mx.Figure9b() })
		show("hops", func() fmt.Stringer { return mx.LinkAnalysis() })
		if *fig != "all" {
			return
		}
	}

	switch *table {
	case "5":
		fmt.Print(exp.Table5())
	case "6":
		fmt.Print(exp.Table6())
	case "7":
		for _, t := range exp.Table7() {
			fmt.Print(t)
			fmt.Println()
		}
	case "all":
		fmt.Print(exp.Table5())
		fmt.Println()
		fmt.Print(exp.Table6())
		fmt.Println()
		for _, t := range exp.Table7() {
			fmt.Print(t)
			fmt.Println()
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q (want 5, 6, 7 or all)\n", *table)
		os.Exit(2)
	}
}

// showPerVM renders every run's per-VM attribution: energy split and
// miss-latency percentiles per consolidated VM. Returns false if no
// run carries one.
func showPerVM(m *obs.Manifest) bool {
	shown := false
	for i := range m.Runs {
		r := &m.Runs[i]
		if len(r.PerVM) == 0 {
			continue
		}
		shown = true
		t := stats.NewTable(fmt.Sprintf("per-VM attribution: %s / %s", r.Workload, r.Protocol),
			"vm", "tiles", "refs", "cache pJ", "net pJ", "miss p50", "p99", "p999")
		for j := range r.PerVM {
			v := &r.PerVM[j]
			cache := 0.0
			for _, ce := range v.Breakdown.Cache {
				cache += ce.PJ
			}
			t.AddRow(fmt.Sprint(v.VM), fmt.Sprint(v.Tiles), fmt.Sprint(v.Refs),
				fmt.Sprintf("%.4g", cache),
				fmt.Sprintf("%.4g", v.Breakdown.Link+v.Breakdown.Routing),
				fmt.Sprint(v.P50), fmt.Sprint(v.P99), fmt.Sprint(v.P999))
		}
		fmt.Print(t)
		fmt.Println()
	}
	return shown
}

// sparkRunes is the 8-level vertical bar used by the ASCII curves.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as one row of block characters scaled to
// the series maximum, with a '|' at the warmup→measure boundary.
func sparkline(values []float64, boundary int) string {
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for i, v := range values {
		if i == boundary {
			b.WriteByte('|')
		}
		lvl := 0
		if max > 0 {
			lvl = int(v / max * float64(len(sparkRunes)-1))
		}
		if lvl < 0 {
			lvl = 0
		}
		b.WriteRune(sparkRunes[lvl])
	}
	return b.String()
}

// downsample buckets values into at most width means, carrying the
// boundary index along, so long runs still fit a terminal row.
func downsample(values []float64, boundary, width int) ([]float64, int) {
	if len(values) <= width {
		return values, boundary
	}
	out := make([]float64, width)
	outBoundary := boundary * width / len(values)
	for i := range out {
		lo, hi := i*len(values)/width, (i+1)*len(values)/width
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out, outBoundary
}

// delta returns b-a for a cumulative signal, falling back to b when
// the counter restarted (phase boundary) and b dropped below a.
func delta(b, a float64) float64 {
	if b >= a {
		return b - a
	}
	return b
}

// phaseMeans averages per-epoch values on each side of the boundary.
func phaseMeans(values []float64, boundary int) (warm, steady float64) {
	for i, v := range values {
		if i < boundary {
			warm += v
		} else {
			steady += v
		}
	}
	if boundary > 0 {
		warm /= float64(boundary)
	}
	if n := len(values) - boundary; n > 0 {
		steady /= float64(n)
	}
	return warm, steady
}

// plotSeries renders every sampled run's warmup-vs-steady-state
// curves: per-epoch retirement rate, total dynamic energy and queue
// depths. Returns false if no run carried a series.
func plotSeries(m *obs.Manifest) bool {
	const width = 64
	plotted := false
	for i := range m.Runs {
		r := &m.Runs[i]
		s := r.Series
		if s == nil || len(s.Samples) < 2 {
			continue
		}
		plotted = true
		// Per-epoch deltas of the cumulative signals; the boundary is
		// the first measure-phase sample.
		boundary := len(s.Samples)
		refs := make([]float64, 0, len(s.Samples)-1)
		energy := make([]float64, 0, len(s.Samples)-1)
		queue := make([]float64, 0, len(s.Samples)-1)
		for j := 1; j < len(s.Samples); j++ {
			a, b := &s.Samples[j-1], &s.Samples[j]
			if b.Phase == "measure" && a.Phase != "measure" && boundary == len(s.Samples) {
				boundary = j - 1
			}
			// Counters restart at the warmup→measure boundary, so a
			// cumulative signal can step below its predecessor there;
			// the epoch's own total is then the new cumulative value.
			refs = append(refs, delta(float64(b.Refs), float64(a.Refs)))
			et := func(s *telemetry.Sample) float64 {
				return s.EnergyCachePJ + s.EnergyLinkPJ + s.EnergyRoutingPJ
			}
			energy = append(energy, delta(et(b), et(a)))
			queue = append(queue, float64(b.QueueDepth))
		}
		fmt.Printf("%s / %s — %d epochs of %d cycles (%d dropped), warmup | measure:\n",
			r.Workload, r.Protocol, len(s.Samples), s.Interval, s.Dropped)
		for _, c := range []struct {
			name   string
			values []float64
		}{
			{"refs/epoch", refs},
			{"energy pJ/epoch", energy},
			{"kernel queue", queue},
		} {
			warm, steady := phaseMeans(c.values, boundary)
			vals, bnd := downsample(c.values, boundary, width)
			fmt.Printf("  %-16s %s  warmup %.4g → steady %.4g\n", c.name, sparkline(vals, bnd), warm, steady)
		}
		fmt.Println()
	}
	return plotted
}

// readManifest loads a manifest from a file, or from matrix.json
// inside a directory (the layout cmd/experiments -out writes), and
// verifies that every run record round-trips, so no view renders a
// malformed manifest.
func readManifest(path string) (*obs.Manifest, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "matrix.json")
	}
	m, err := obs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return m, m.Verify()
}
