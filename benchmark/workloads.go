package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
)

// spec is one benchmark workload: a Table IV configuration run on all
// four protocols on the serial executor, each a closed loop of 64 cores
// with one reference in flight per core, warmed up and then measured.
type spec struct {
	Name     string
	Workload string // a workload.Names entry
	Warmup   int    // warmup references per core
	Refs     int    // measured references per core
}

// specs are the benchmark's workloads. Each stresses a different set of
// layers (see README.md): apache the miss path through proto, mesh and
// the L2/directory arrays; jbb the same layers with write, eviction and
// DRAM traffic plus a mapper-TLB-overflowing heap; sci the L1-resident
// control on which miss-path changes must not move.
var specs = []spec{
	{Name: "apache", Workload: "apache4x16p", Warmup: 8000, Refs: 8000},
	{Name: "jbb", Workload: "jbb4x16p", Warmup: 8000, Refs: 8000},
	{Name: "sci", Workload: "mixed-sci", Warmup: 8000, Refs: 8000},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return spec{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// config is the run configuration of one protocol on this workload.
func (s spec) config(protocol string, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workload = s.Workload
	cfg.Protocol = protocol
	cfg.WarmupRefs, cfg.RefsPerCore = s.Warmup, s.Refs
	cfg.Seed = seed
	return cfg
}

// options are the run parameters. Tests shrink them; the command line
// sets only seed, seconds and trace.
type options struct {
	seed      uint64
	seconds   float64 // measuring budget of the timed rounds
	trace     bool
	checkRefs int // references per core of the checked pass, from cold caches
	probe     probeSizes
}

// protoSample is one protocol's share of a timed round.
type protoSample struct {
	setup, warmup, measure time.Duration
	warmRefs, refs         uint64
	heap                   uint64 // live heap after GC with the system still reachable
	allocs                 uint64 // heap objects allocated by the measured phase
	lanes                  *sim.LaneProfile
}

// round is one pass over the four protocols.
type round struct {
	traced bool
	protos map[string]protoSample
}

// runner drives one invocation and keeps its failure accounting: a run
// fails if it errors, stalls or panics, if the shadow checker reports a
// violation, or if its digest differs from the reference run's.
type runner struct {
	spec      spec
	opt       options
	attempted int
	failed    int
	errs      []string

	ref     map[string]*core.Result // reference result per protocol
	digests map[string]string       // reference and checked-pass digests
	rounds  []round

	// Measured-phase CPU time per layer, and the refs and wall time it
	// covers, summed over the traced rounds.
	layerNS      map[string]int64
	tracedRefs   uint64
	tracedWallNS int64
}

func newRunner(s spec, opt options) *runner {
	return &runner{
		spec:    s,
		opt:     opt,
		digests: map[string]string{},
		layerNS: map[string]int64{},
	}
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// guarded runs fn, converting a panic into an error.
func guarded(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// runEach runs every protocol once through the plain user path,
// core.Run, and returns the results of the runs that succeeded.
func (r *runner) runEach(pass string, adjust func(*core.Config)) map[string]*core.Result {
	out := map[string]*core.Result{}
	for _, p := range core.ProtocolNames {
		r.attempted++
		cfg := r.spec.config(p, r.opt.seed)
		adjust(&cfg)
		err := guarded(func() (err error) {
			out[p], err = core.Run(cfg)
			return err
		})
		if err != nil {
			delete(out, p)
			r.fail("%s %s: %v", p, pass, err)
		}
	}
	return out
}

// reference runs the reference pass. The timed rounds are checked
// against its digests, and it warms the process up.
func (r *runner) reference() {
	r.ref = r.runEach("reference", func(*core.Config) {})
	for p, res := range r.ref {
		r.digests[p] = digest(res)
	}
}

// checked runs every protocol once with the shadow-memory SWMR/stale-hit
// checker and the stalled-transaction watchdog armed, from cold caches
// so the checked references include the misses.
func (r *runner) checked() {
	res := r.runEach("checked", func(cfg *core.Config) {
		cfg.Check = true
		cfg.WarmupRefs, cfg.RefsPerCore = 0, r.opt.checkRefs
	})
	for p := range res {
		r.digests[p+".check"] = digest(res[p])
	}
}

// timedRound builds, warms and measures every protocol once, timing
// each phase from outside. A traced round wraps each measured phase in
// pprof labels so only measured-phase profile samples are folded.
func (r *runner) timedRound(traced bool) {
	rd := round{traced: traced, protos: map[string]protoSample{}}
	for _, p := range core.ProtocolNames {
		r.attempted++
		ps, res, err := r.timedRun(r.spec.config(p, r.opt.seed), traced)
		if err == nil {
			if want, ok := r.digests[p]; !ok {
				err = fmt.Errorf("no reference digest")
			} else if got := digest(res); got != want {
				err = fmt.Errorf("digest %s differs from reference %s", got, want)
			}
		}
		if err != nil {
			r.fail("%s round %d: %v", p, len(r.rounds)+1, err)
			return
		}
		rd.protos[p] = ps
	}
	r.rounds = append(r.rounds, rd)
}

// timedRun builds, warms and measures one system, timing each phase
// with the wall clock, and records the measured phase's allocations,
// the live heap with the system still reachable and, on the parallel
// executor, the measured phase's lane profile.
func (r *runner) timedRun(cfg core.Config, traced bool) (ps protoSample, res *core.Result, err error) {
	err = guarded(func() error {
		// Every construction pays fresh page faults, as a new process
		// would; without this, set-up time depends on what the previous
		// run left in the heap.
		debug.FreeOSMemory()
		t0 := time.Now()
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := sys.RunWarmup(); err != nil {
			return err
		}
		t2 := time.Now()
		if cfg.Parallel {
			// A fresh lane profile holds only measured-phase windows.
			ps.lanes = &sim.LaneProfile{}
			sys.SK.SetLaneProfile(ps.lanes)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t3 := time.Now()
		if traced {
			labels := pprof.Labels("workload", r.spec.Name, "protocol", cfg.Protocol, "phase", "measure")
			pprof.Do(context.Background(), labels, func(context.Context) {
				res, err = sys.RunMeasure()
			})
		} else {
			res, err = sys.RunMeasure()
		}
		t4 := time.Now()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		ps.allocs = ms.Mallocs - mallocs
		debug.FreeOSMemory()
		runtime.ReadMemStats(&ms)
		ps.heap = ms.HeapAlloc
		runtime.KeepAlive(sys)
		ps.setup, ps.warmup, ps.measure = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3)
		ps.warmRefs = uint64(cfg.WarmupRefs) * uint64(cfg.Tiles)
		ps.refs = res.Refs
		return nil
	})
	return ps, res, err
}

// digest fingerprints every simulated output of a run: cycles, refs,
// events, the counters in name order, the network statistics, the miss
// profile and the DRAM reads. Any executor or optimisation that keeps
// the model unchanged must reproduce it exactly.
func digest(res *core.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(res.Cycles))
	put(res.Refs)
	put(res.Events)
	names := res.Counters.Names()
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		put(res.Counters.Value(n))
	}
	n := res.Net
	for _, v := range []uint64{n.Messages, n.Broadcasts, n.FlitLinkCrossing, n.RouterTraversals,
		n.TotalHops, n.TotalLatency, n.QueueingCycles} {
		put(v)
	}
	for c := proto.MissClass(0); c < proto.NumMissClasses; c++ {
		put(res.Profile.Count[c])
		put(res.Profile.Links[c])
	}
	put(res.Profile.Hits)
	put(res.MemReads)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// replayRefs is the warmup and measured references per core of the
// parallel replay.
const replayRefs = 4000

// parallelReplay runs every protocol on the serial executor and then on
// the 2-lane parallel window executor at replayRefs references per
// core, back to back so both see the same host. The parallel result
// must reproduce the serial one bit for bit. It returns the parallel
// runs, whose lane profiles give the lane metrics, and the parallel
// speedup: summed serial measured-phase time over summed parallel time.
func (r *runner) parallelReplay() (lanes []protoSample, speedup float64) {
	s := r.spec
	s.Warmup, s.Refs = min(s.Warmup, replayRefs), min(s.Refs, replayRefs)
	var serialNS, parallelNS int64
	for _, p := range core.ProtocolNames {
		cfg := s.config(p, r.opt.seed)
		r.attempted++
		ser, want, err := r.timedRun(cfg, false)
		if err != nil {
			r.fail("%s serial replay: %v", p, err)
			continue
		}
		cfg.Shards, cfg.Parallel = 2, true
		r.attempted++
		par, res, err := r.timedRun(cfg, false)
		if err == nil && digest(res) != digest(want) {
			err = fmt.Errorf("digest %s differs from serial %s", digest(res), digest(want))
		}
		if err != nil {
			r.fail("%s parallel replay: %v", p, err)
			continue
		}
		lanes = append(lanes, par)
		serialNS += ser.measure.Nanoseconds()
		parallelNS += par.measure.Nanoseconds()
	}
	return lanes, ratio(float64(serialNS), float64(parallelNS))
}
