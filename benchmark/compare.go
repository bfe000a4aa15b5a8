package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare reads: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles prints, per workload, each end-to-end metric's value
// and quartiles on both sides with the bound from BENCHMARK.json, and
// checks that the deterministic counts and digests of runs with equal
// workload and seed match exactly. A side with several runs is
// summarized by the median and quartiles of its runs' values; a side
// with one run by that run's value and round quartiles. A metric whose
// spread exceeds its bound is unresolved, unless every run of b reads
// better than every run of a. It reports false on a resolved regression
// beyond the bound or a count mismatch.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range workloadsIn(a, b) {
		ra, rb := untraced(a, wl), untraced(b, wl)
		fmt.Fprintf(w, "%s: %d vs %d runs\n", wl, len(ra), len(rb))
		fmt.Fprintf(w, "  %-24s %28s %28s %8s %6s  %s\n", "metric", "a value [q1, q3]", "b value [q1, q3]", "delta", "bound", "verdict")
		for _, m := range bs.EndToEnd {
			va, vb := runValues(ra, m.Name), runValues(rb, m.Name)
			sa, sb := sideStat(ra, m.Name), sideStat(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-24s missing\n", m.Name)
				continue
			}
			sign := 1.0 // positive delta = b is better
			if m.Better == "lower" {
				sign = -1
			}
			delta := sign * (sb.Value/sa.Value - 1)
			spread := math.Max(spreadOf(sa), spreadOf(sb))
			verdict := "ok"
			switch {
			case spread > m.Bound && allBetter(vb, va, sign):
				verdict = "better (every run)"
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
			case delta < -m.Bound:
				verdict = "REGRESSED"
				ok = false
			}
			fmt.Fprintf(w, "  %-24s %28s %28s %+7.1f%% %5.0f%%  %s\n", m.Name,
				fmtStat(sa), fmtStat(sb), 100*delta, 100*m.Bound, verdict)
		}
	}
	pairs := 0
	for _, x := range a.Runs {
		for _, y := range b.Runs {
			if x.Workload != y.Workload || x.Seed != y.Seed || x.Trace != y.Trace {
				continue
			}
			pairs++
			for _, diff := range diffCounts(x, y) {
				fmt.Fprintf(w, "count mismatch %s seed=%d: %s\n", x.Workload, x.Seed, diff)
				ok = false
			}
			break
		}
	}
	fmt.Fprintf(w, "deterministic counts compared on %d run pairs\n", pairs)
	fmt.Fprintf(w, "calib_ns (host context only, not a gate): a %.3f, b %.3f\n",
		median(calibs(a)), median(calibs(b)))
	return ok, nil
}

// workloadsIn lists the workloads with untraced runs on both sides,
// in benchmark order.
func workloadsIn(a, b *resultsFile) []string {
	var out []string
	for _, s := range specs {
		if len(untraced(a, s.Name)) > 0 && len(untraced(b, s.Name)) > 0 {
			out = append(out, s.Name)
		}
	}
	return out
}

func untraced(f *resultsFile, workload string) []*runResult {
	var out []*runResult
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func runValues(runs []*runResult, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if s, ok := r.Metrics[metric]; ok && s.N > 0 {
			vs = append(vs, s.Value)
		}
	}
	return vs
}

func sideStat(runs []*runResult, metric string) stat {
	if len(runs) == 1 {
		return runs[0].Metrics[metric]
	}
	return summarize("", runValues(runs, metric))
}

func spreadOf(s stat) float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Value)) }

// allBetter reports whether every value of b beats every value of a;
// sign is +1 when higher is better and -1 when lower is.
func allBetter(b, a []float64, sign float64) bool {
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}

func fmtStat(s stat) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Value, s.Q1, s.Q3)
}

// diffCounts lists every count or digest that differs between two runs
// of the same workload and seed.
func diffCounts(x, y *runResult) []string {
	var out []string
	for _, k := range sortedKeys(x.Counts) {
		if v, ok := y.Counts[k]; !ok || v != x.Counts[k] {
			out = append(out, fmt.Sprintf("%s %d vs %d", k, x.Counts[k], v))
		}
	}
	for _, k := range sortedKeys(x.Digests) {
		if v, ok := y.Digests[k]; !ok || v != x.Digests[k] {
			out = append(out, fmt.Sprintf("digest %s %s vs %s", k, x.Digests[k], v))
		}
	}
	sort.Strings(out)
	return out
}

func calibs(f *resultsFile) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		vs = append(vs, r.CalibNS)
	}
	return vs
}
