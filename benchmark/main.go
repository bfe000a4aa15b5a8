// Command benchmark is the repository's performance benchmark. One
// invocation runs one consolidation workload on all four coherence
// protocols through the simulator's public API (core.NewSystem,
// RunWarmup, RunMeasure), times each phase from outside, checks that
// every simulated result is correct and deterministic, and prints every
// metric by name with its unit. The last line of standard output is a
// JSON summary.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash benchmark/run.sh --workload apache --seed 1 --seconds 35 --trace 0
//	bash benchmark/run.sh --workload jbb --trace 1 --out results.json
//	bash benchmark/run.sh -compare before.json after.json
//
// With --trace 0 the timed rounds give the end-to-end metrics. With
// --trace 1 the run alternates untraced rounds with CPU-profiled ones,
// adds a replay on the parallel executor and isolated layer probes, and
// prints the per-layer metrics.
// See README.md for the metric dictionary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"time"

	"repro/internal/core"
)

func main() {
	name := flag.String("workload", "apache", "workload to run: apache, jbb or sci")
	seed := flag.Uint64("seed", 1, "seed of the workload's reference streams")
	seconds := flag.Float64("seconds", 35, "how long the timed rounds run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled rounds and probes")
	out := flag.String("out", "", "append this run's full statistics to a results JSON file")
	compare := flag.Bool("compare", false, "compare two results files given as arguments and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two results files")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	s, err := lookupSpec(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, err := run(s, options{seed: *seed, seconds: *seconds, trace: *trace == 1,
		checkRefs: 1500, probe: defaultProbes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(os.Stdout, res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, err := summaryLine(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// runResult is everything one invocation measured. -out files hold a
// list of them; -compare reads them back.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Rounds    int               `json:"rounds"`
	CalibNS   float64           `json:"calib_ns"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]stat   `json:"metrics"`
	Counts    map[string]uint64 `json:"counts"`
	Digests   map[string]string `json:"digests"`
}

// run executes one invocation: a reference pass, a checked pass, timed
// rounds until the budget is spent, and with trace the parallel replay
// and the probes. Errors
// of the simulated runs are counted as failures in the result; an
// error return means the benchmark itself could not run.
func run(s spec, opt options) (*runResult, error) {
	r := newRunner(s, opt)
	calib := calibrate()
	r.reference()
	r.checked()
	start := time.Now()
	for i := 0; ; i++ {
		if opt.trace && i%2 == 1 {
			if err := r.tracedRound(); err != nil {
				return nil, err
			}
		} else {
			r.timedRound(false)
		}
		if time.Since(start).Seconds() >= opt.seconds && (!opt.trace || i >= 1) {
			break
		}
	}
	res := &runResult{
		Workload: s.Name, Seed: opt.seed, Trace: opt.trace, Seconds: opt.seconds,
		Rounds: len(r.rounds), CalibNS: calib,
		Attempted: r.attempted, Failed: r.failed, Errors: r.errs,
		Counts: map[string]uint64{}, Digests: r.digests,
	}
	for _, p := range core.ProtocolNames {
		if ref, ok := r.ref[p]; ok {
			res.Counts[p+".cycles"] = uint64(ref.Cycles)
			res.Counts[p+".refs"] = ref.Refs
			res.Counts[p+".events"] = ref.Events
			res.Counts[p+".messages"] = ref.Net.Messages
			res.Counts[p+".mem_reads"] = ref.MemReads
		}
	}
	if !opt.trace {
		res.Metrics = r.endToEnd()
		return res, nil
	}
	lanes, speedup := r.parallelReplay()
	probes, err := runProbes(s, opt.seed, opt.probe)
	if err != nil {
		return nil, err
	}
	res.Metrics = r.perLayer(probes, lanes, speedup, calib)
	return res, nil
}

var calibSink uint64

// calibrate times a fixed integer loop (ns per iteration, median of
// five). It gives cross-host context for recorded numbers only: on a
// shared host it does not track the run-to-run noise, so nothing is
// normalized by it.
func calibrate() float64 {
	const n = 4_000_000
	var ts []float64
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		t := time.Now()
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts = append(ts, float64(time.Since(t).Nanoseconds())/n)
		calibSink += x
	}
	return median(ts)
}

// report prints the human-readable table: every metric with its
// reported value, median, quartiles, sample count and unit, then the
// digests.
func report(w io.Writer, res *runResult) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "benchmark %s seed=%d %s: %d rounds, %d/%d runs failed, calib %.3f ns\n",
		res.Workload, res.Seed, mode, res.Rounds, res.Failed, res.Attempted, res.CalibNS)
	for _, e := range res.Errors {
		fmt.Fprintln(w, "  FAIL", e)
	}
	fmt.Fprintf(w, "  %-36s %14s %14s %14s %14s %3s  %s\n", "metric", "value", "median", "q1", "q3", "n", "unit")
	for _, name := range sortedKeys(res.Metrics) {
		s := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %14.6g %14.6g %14.6g %3d  %s\n", name, s.Value, s.Median, s.Q1, s.Q3, s.N, s.Unit)
	}
	for _, name := range sortedKeys(res.Digests) {
		fmt.Fprintf(w, "  digest %-16s %s\n", name, res.Digests[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// summaryLine is the final JSON line: correctness, run accounting and
// each metric's reported value with its unit.
func summaryLine(res *runResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for name, s := range res.Metrics {
		out.Metrics[name] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// resultsFile is the -out format: every run appended so far.
type resultsFile struct {
	Runs []*runResult `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendResult(path string, res *runResult) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, res)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
