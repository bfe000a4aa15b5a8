// Package core assembles the full chip-multiprocessor simulation: the
// tiled chip (cores, caches, coherence engine), the mesh network, the
// memory system with deduplication, the workload generators, and the
// power models — and runs consolidated-server experiments end to end.
package core

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// ProtocolNames lists the four engines in the paper's order.
var ProtocolNames = []string{"directory", "dico", "providers", "arin"}

// Config selects one simulation run.
type Config struct {
	Tiles        int
	Areas        int
	Protocol     string // directory | dico | providers | arin
	Workload     string // a workload.Names entry
	AltPlacement bool   // Figure 6's "-alt" configuration
	Dedup        bool   // memory deduplication on (paper default)
	RefsPerCore  int    // references each core retires (measured)
	WarmupRefs   int    // references per core before measurement starts
	Seed         uint64
	Proto        proto.Config
	Net          mesh.Config

	// Shards and Parallel select the executor, and are set together or
	// not at all. Zero/false runs the single serial kernel. Shards = N
	// with Parallel partitions the mesh into N contiguous tile bands,
	// each owning its tiles' reference drivers and mesh deliveries on
	// its own sim.Kernel lane, and runs the phases on the lanes
	// concurrently (sim.ShardedKernel.RunParallel: conservative PDES
	// with the mesh hop latency as lookahead; see DESIGN.md §13). The
	// engines' messageized handlers are shard-affine, so any shard
	// count produces results bit-identical to a serial run, which the
	// crosscheck fingerprint gate enforces. Runs that arm hub-resident
	// observability (Check, Trace, PerVM, SampleEvery) fall back to the
	// serial kernel; Result.Executor reports which executor actually
	// ran.
	Shards   int
	Parallel bool

	// Check attaches the shadow-memory coherence checker
	// (internal/check) to the run and checks the engine's invariants at
	// the end of the measured phase. The checker only observes: the
	// event stream is bit-identical with Check on or off. The stall rule
	// (proto.Stalled) runs on every run, checked or not.
	Check bool

	// Trace arms the causal transaction tracer (internal/telemetry):
	// every L1 miss opens a span that follows the transaction through
	// the mesh. Observation-only: the event stream is bit-identical with
	// tracing on or off. The tracer keeps the newest
	// telemetry.DefaultSpanCap spans.
	Trace bool
	// SampleEvery, when > 0, arms the epoch time-series sampler: about
	// every SampleEvery cycles a snapshot of all counters, queue
	// depths and the energy split is recorded into
	// Result.Series (the newest telemetry.DefaultSampleCap samples).
	// The phase loop takes the snapshots between kernel windows, so
	// the event stream is bit-identical with sampling on or off.
	SampleEvery sim.Time

	// PerVM splits the power-event counters, the attributed mesh
	// traffic and the miss-latency histogram by consolidated VM,
	// collected into Result.PerVM. The split uses private per-VM
	// counter banks that are folded back into the global set when the
	// measured phase ends, so every global counter, and the whole event
	// stream, is bit-identical with PerVM on or off.
	PerVM bool
}

// DefaultConfig is the paper's evaluated system: 64 tiles, 4 areas,
// deduplication on, matched VM placement.
func DefaultConfig() Config {
	return Config{
		Tiles:       64,
		Areas:       4,
		Protocol:    "directory",
		Workload:    "apache4x16p",
		Dedup:       true,
		RefsPerCore: 20000,
		Seed:        1,
		Proto:       proto.DefaultConfig(),
		Net:         mesh.DefaultConfig(),
	}
}

// PhaseStat times one run phase (warmup or measure): host wall clock,
// simulated cycles, kernel events dispatched and references retired.
// Wall clock is host data, so phase stats live on the System
// (System.Phases), never on the deterministic Result.
type PhaseStat struct {
	Name   string
	WallNS int64
	Cycles sim.Time
	Events uint64
	Refs   uint64
}

// Result carries everything the evaluation figures need from one run.
type Result struct {
	Config Config
	// Executor names the event loop that drove the run: "serial"
	// (single kernel) or "parallel" (sharded conservative windows).
	// Both produce bit-identical simulation results; the name matters
	// only for host-performance comparisons.
	Executor     string
	Cycles       sim.Time
	Refs         uint64
	Events       uint64 // kernel events dispatched by the measured phase
	Counters     *stats.Set
	Net          mesh.Stats
	Profile      proto.MissProfile
	MemReads     uint64
	DedupSavings float64

	Energies  power.TileEnergies
	Breakdown power.DynamicBreakdown

	// Series is non-nil only when Config.SampleEvery was set: the epoch
	// time series of the run (warmup and measured phases).
	Series *telemetry.Series

	// PerVM is non-nil only when Config.PerVM was set: one entry per
	// consolidated VM, in VM order.
	PerVM []VMStat
}

// VMStat is one VM's slice of the measured phase (Config.PerVM).
type VMStat struct {
	VM    int
	Tiles int
	Refs  uint64
	// Counters is the VM's private power-event bank. Its values are
	// folded into the global Result.Counters at measure end, so summing
	// a name across banks plus any unattributed global remainder equals
	// the off-mode value exactly.
	Counters *stats.Set
	// Flits and Routers are the VM's attributed mesh activity
	// (flit-link crossings and router traversals of its unicasts;
	// broadcasts stay unattributed).
	Flits   uint64
	Routers uint64
	// Breakdown prices the bank and the attributed mesh activity with
	// the run's energy model.
	Breakdown power.DynamicBreakdown
	// MissLatency is the VM's issue-to-retire latency histogram with
	// its bucket-derived percentiles (cycles).
	MissLatency    sim.Hist
	P50, P99, P999 uint64
}

// Performance returns the work rate (references per cycle), the
// quantity Figure 9a normalizes: for the server benchmarks it is
// proportional to transactions per 500M cycles, for the scientific
// ones to the inverse of execution time.
func (r *Result) Performance() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Refs) / float64(r.Cycles)
}

// PowerPerCycle returns the dynamic energy spent per cycle (the height
// of a Figure 7 bar before normalization).
func (r *Result) PowerPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return r.Breakdown.Total() / float64(r.Cycles)
}

// CachePowerPerCycle returns the cache share of dynamic power.
func (r *Result) CachePowerPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return r.Breakdown.CacheTotal() / float64(r.Cycles)
}

// NetworkPowerPerCycle returns the network share of dynamic power.
func (r *Result) NetworkPowerPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return r.Breakdown.NetworkTotal() / float64(r.Cycles)
}

// L2MissRatio approximates the L2 miss rate as the fraction of L1
// misses that had to go to memory.
func (r *Result) L2MissRatio() float64 {
	m := r.Profile.TotalMisses()
	if m == 0 {
		return 0
	}
	return float64(r.MemReads) / float64(m)
}

// storageProtocol maps an engine name to the analytic model's enum.
func storageProtocol(name string) (storage.Protocol, error) {
	switch name {
	case "directory":
		return storage.Directory, nil
	case "dico":
		return storage.DiCo, nil
	case "providers":
		return storage.DiCoProviders, nil
	case "arin":
		return storage.DiCoArin, nil
	}
	return 0, fmt.Errorf("core: unknown protocol %q", name)
}

// System is a fully built chip ready to run.
type System struct {
	Cfg       Config
	Kernel    *sim.Kernel
	Net       *mesh.Network
	Areas     *topo.Areas
	Placement *topo.Placement
	Mem       *memctrl.Controllers
	Mapper    *memctrl.Mapper
	Gen       *workload.Generator
	Engine    proto.Engine
	Ctx       *proto.Context

	// Shadow is non-nil only when Cfg.Check is set.
	Shadow *check.Shadow

	// Tracer is non-nil only when Cfg.Trace is set; Sampler only when
	// Cfg.SampleEvery > 0.
	Tracer  *telemetry.Tracer
	Sampler *telemetry.Sampler

	// SK is non-nil only when the phases execute on RunParallel: the
	// config asked for it and no hub-resident observability is armed
	// (see Config.Parallel). Kernel is then its hub lane (lane 0), which
	// carries the run's primary random stream. Drivers consult SK to
	// keep phase bookkeeping per-tile — concurrent lanes must not share
	// counters.
	SK      *sim.ShardedKernel
	shardOf []int // tile -> shard (SK != nil only)

	// phases records every phase this system ran, in order.
	phases []PhaseStat

	// vmOf and vmHist are non-nil only when Cfg.PerVM is set: the
	// tile-to-VM map and the per-VM miss-latency histograms.
	vmOf   []int
	vmHist []sim.Hist

	retired   []int
	refsTotal uint64

	// energies prices every event of the run (Result.Energies).
	energies power.TileEnergies

	// Per-tile reference drivers. Each holds the tile's in-flight
	// access and one persistent retire closure (the engine's onDone for
	// misses); its own events are AtArg continuations on the driver, so
	// driving a reference through issue → retire → next allocates
	// nothing. An L1 hit costs one kernel event: the issue event both
	// looks the reference up and retires it.
	drivers []tileDriver

	// Phase-loop state shared by the drivers (reset by runPhase).
	phaseRefs       int
	phaseDone       int
	phaseTotal      uint64
	phaseLastRetire sim.Time
}

// tileDriver issues one core's references back to back, Gap cycles
// apart. Its events live on k — the tile's shard lane when sharded,
// the single kernel otherwise — so driver work is owned by the tile's
// shard.
type tileDriver struct {
	s      *System
	k      *sim.Kernel
	tile   topo.Tile
	addr   cache.Addr
	write  bool
	issued sim.Time // issue timestamp of the stored access
	// lastRetire is this tile's most recent retirement time. Parallel
	// phases derive the phase-global last-retire as the max over tiles
	// after the queues drain, because concurrent lanes cannot share
	// the serial path's phaseLastRetire cell.
	lastRetire sim.Time

	doneC func() // allocated once; retire the stored miss
}

// assertShard is the driver-level ownership assert of a sharded run,
// guarding the two driver events (start and issue). Inside a
// RunParallel window events run on the lane they were scheduled on —
// the tile's lane, by construction — so the assert checks that lane is
// actually mid-window.
func (d *tileDriver) assertShard() {
	if d.s.SK != nil && !d.k.Deferring() {
		panic(fmt.Sprintf("core: tile %d driver event dispatched outside a parallel window", d.tile))
	}
}

// driverStart and driverIssue are the driver's event entry points
// (AtArg continuations, arg the *tileDriver): they dispatch on the
// tile's lane, so they carry the ownership assert. next/issue
// themselves stay assert-free because they are also reached inline
// from done(), the retire continuation an engine handler calls on the
// tile's lane; the engine's own ownership check (proto.Context) covers
// that path.
func driverStart(a any) {
	d := a.(*tileDriver)
	d.assertShard()
	if d.next(d.k.Now()) {
		d.issue()
	}
}

func driverIssue(a any) {
	d := a.(*tileDriver)
	d.assertShard()
	d.issue()
}

// next draws the tile's next reference, to issue Gap cycles after at.
// It reports whether that issue is due now: the caller then issues it
// inline; a later one is scheduled.
func (d *tileDriver) next(at sim.Time) bool {
	s := d.s
	if s.retired[d.tile] >= s.phaseRefs {
		// phaseDone is serial-only bookkeeping; parallel phases derive
		// completion from retired[] between windows.
		if s.SK == nil {
			s.phaseDone++
		}
		return false
	}
	acc := s.Gen.Next(d.tile)
	d.addr, d.write = acc.Addr, acc.Write
	if at += acc.Gap; at > d.k.Now() {
		d.k.AtArg(at, driverIssue, d)
		return false
	}
	return true
}

// issue issues the stored access. A hit retires inside this event, at
// L1HitLatency past the lookup; the loop issues its successor when
// that one is due at once. A miss retires later through doneC.
func (d *tileDriver) issue() {
	s := d.s
	for {
		d.issued = d.k.Now()
		if !s.Engine.Issue(d.tile, d.addr, d.write, d.doneC) ||
			!d.retire(d.issued+s.Cfg.Proto.L1HitLatency) {
			return
		}
	}
}

func (d *tileDriver) done() {
	if d.retire(d.k.Now()) {
		d.issue()
	}
}

// retire retires the stored access at time at (now for a miss, a hit
// latency past now for a hit) and draws the next one; it reports
// whether the caller must issue that one inline (see next).
func (d *tileDriver) retire(at sim.Time) bool {
	s := d.s
	if s.vmHist != nil {
		// Per-VM variant: histogram everything slower than an L1 hit.
		if lat := at - d.issued; lat > s.Cfg.Proto.L1HitLatency {
			s.vmHist[s.vmOf[d.tile]].Observe(uint64(lat))
		}
	}
	s.retired[d.tile]++
	d.lastRetire = at
	if s.SK == nil {
		// Shared phase counters stay serial-only: under RunParallel
		// every lane retires concurrently, so the phase totals are
		// derived from the per-tile state at window boundaries instead.
		s.phaseTotal++
		s.refsTotal++
		// A hit stamps a retirement in the future, so stamps do not
		// arrive in time order: keep the max.
		if at > s.phaseLastRetire {
			s.phaseLastRetire = at
		}
	}
	return d.next(at)
}

// NewSystem validates cfg and builds a chip from it.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := workload.Named(cfg.Workload)
	if err != nil {
		return nil, err
	}
	// RunParallel eligibility: asked for, and no hub-resident
	// observability. Check, Trace, PerVM and the sampler all run
	// chip-global hooks (the shadow checker, span tables, shared
	// counters), so they run on the serial kernel. The sharded
	// executor's hub lane is constructed exactly like the single kernel
	// (same seed, same Fork order below), so every random stream the
	// model draws is identical on both executors.
	parallel := cfg.Parallel && !cfg.Check && !cfg.Trace && !cfg.PerVM &&
		cfg.SampleEvery == 0
	var sk *sim.ShardedKernel
	var kernel *sim.Kernel
	if parallel {
		sk = sim.NewSharded(cfg.Seed, cfg.Shards, cfg.Net.HopLatency())
		kernel = sk.Hub()
	} else {
		kernel = sim.NewKernel(cfg.Seed)
	}
	grid := topo.SquareGrid(cfg.Tiles)
	areas, err := topo.NewAreas(grid, cfg.Areas)
	if err != nil {
		return nil, err
	}
	// VMs are placed independently of the hard-wired coherence areas:
	// the paper always runs 4 VMs while Table VII sweeps the area
	// count. With the default 4 areas the two divisions coincide and
	// the matched placement puts one VM per area.
	vmAreas, err := topo.NewAreas(grid, len(w.VMs))
	if err != nil {
		return nil, err
	}
	placement := topo.MatchedPlacement(vmAreas)
	if cfg.AltPlacement {
		placement = topo.AlternativePlacement(vmAreas)
	}
	net := mesh.New(kernel, grid, cfg.Net)
	var shardOf []int
	var laneKernels []*sim.Kernel
	if sk != nil {
		shardOf = topo.Partition(grid, cfg.Shards)
		laneKernels = make([]*sim.Kernel, cfg.Shards)
		for i := range laneKernels {
			laneKernels[i] = sk.Shard(i)
		}
		net.SetSharding(laneKernels, shardOf)
	}
	mem := memctrl.Default(grid, kernel.Rand().Fork())
	mapper := memctrl.NewMapper(cfg.Dedup)
	gen := workload.NewGenerator(w, placement, mapper, kernel.Rand().Fork())
	// Every executor shares one timing model: copy-on-write breaks
	// become visible to readers one mesh hop later, which is the
	// parallel executor's lookahead — within it no lane can observe
	// another lane's same-window break anyway. Lane bindings follow:
	// serial runs are a single lane on the only kernel.
	mapper.SetCoWDelay(cfg.Net.HopLatency())
	if sk != nil {
		gen.SetLanes(shardOf, laneKernels)
	} else {
		gen.SetLanes(make([]int, grid.Tiles()), []*sim.Kernel{kernel})
	}
	ctx := &proto.Context{Kernel: kernel, Net: net, Areas: areas, Mem: mem, Cfg: cfg.Proto}
	if sk != nil {
		ctx.SetLanes(shardOf, laneKernels)
	}
	// Per-VM attribution must be armed before the engine is built: the
	// engines resolve their power handles at construction.
	var vmOf []int
	if cfg.PerVM {
		vmOf = make([]int, cfg.Tiles)
		for t := range vmOf {
			vmOf[t] = placement.VMOf(topo.Tile(t))
		}
		ctx.EnablePerVM(vmOf, placement.NumVMs)
	}
	eng, err := proto.NewEngine(cfg.Protocol, ctx)
	if err != nil {
		return nil, err
	}
	sp, err := storageProtocol(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	var sh *check.Shadow
	if cfg.Check {
		sh = check.NewShadow(eng, kernel)
		ctx.Observer = sh
	}
	s := &System{
		Cfg:       cfg,
		Kernel:    kernel,
		Net:       net,
		Areas:     areas,
		Placement: placement,
		Mem:       mem,
		Mapper:    mapper,
		Gen:       gen,
		Engine:    eng,
		Ctx:       ctx,
		Shadow:    sh,
		SK:        sk,
		shardOf:   shardOf,
		vmOf:      vmOf,
		retired:   make([]int, cfg.Tiles),
		// The chip is priced once, from the geometry it simulates.
		energies: power.Energies(sp, cfg.Proto.Storage(cfg.Tiles, cfg.Areas), power.DefaultEnergy()),
	}
	if cfg.PerVM {
		s.vmHist = make([]sim.Hist, placement.NumVMs)
	}
	if cfg.Trace {
		s.Tracer = telemetry.NewTracer(kernel, cfg.Protocol, cfg.Tiles, 0)
		ctx.Spans = s.Tracer
		net.SetObserver(s.Tracer)
	}
	if cfg.SampleEvery > 0 {
		s.Sampler = telemetry.NewSampler(kernel, cfg.SampleEvery, 0,
			eng.Stats(), net, s.energies,
			func() uint64 { return s.refsTotal })
		if cfg.PerVM {
			// Mid-run counter reads must fold the per-VM banks back in to
			// stay bit-identical to an unattributed run.
			s.Sampler.SetBanks(s.Ctx.PerVMBanks(), s.Ctx.PerVMNet)
		}
	}
	return s, nil
}

// Executor names the event loop driving this system's phases (see
// Result.Executor).
func (s *System) Executor() string {
	if s.SK != nil {
		return "parallel"
	}
	return "serial"
}

// eventsRun returns the events dispatched so far by the executor
// driving the phases.
func (s *System) eventsRun() uint64 {
	if s.SK != nil {
		return s.SK.EventsRun()
	}
	return s.Kernel.EventsRun()
}

// seedPhase resets the per-phase state, builds the drivers on first
// use, and schedules every tile's first step event on its lane.
func (s *System) seedPhase(refs int) {
	cfg := s.Cfg
	for t := range s.retired {
		s.retired[t] = 0
	}
	s.phaseRefs = refs
	s.phaseDone = 0
	s.phaseTotal = 0
	s.phaseLastRetire = 0
	if s.drivers == nil {
		s.drivers = make([]tileDriver, cfg.Tiles)
		for t := range s.drivers {
			d := &s.drivers[t]
			d.s = s
			d.k = s.Kernel
			if s.SK != nil {
				d.k = s.SK.Shard(s.shardOf[t])
			}
			d.tile = topo.Tile(t)
			d.doneC = d.done
		}
	}
	for t := range s.drivers {
		d := &s.drivers[t]
		d.lastRetire = 0
		d.k.AfterArg(sim.Time(t%7), driverStart, d)
	}
}

// stallWindow is how often a phase applies the stall rule.
const stallWindow = proto.StallBound / 4

// runPhase drives every core through refs references, starting each
// reference Gap cycles after the previous one retires. It returns the
// simulation time of the last retirement. A miss in flight for
// proto.StallBound cycles fails the phase, and so does a queue that
// drains before every core is done.
func (s *System) runPhase(refs int) (sim.Time, uint64, error) {
	if s.SK != nil {
		return s.runPhaseParallel(refs)
	}
	cfg := s.Cfg
	s.seedPhase(refs)
	// The kernel runs in windows that end at the earlier of the next
	// stall check and the sampler's next due cycle. Between windows the
	// phase applies the stall rule and takes samples; both only read,
	// so neither adds an event.
	k := s.Kernel
	for s.phaseDone < cfg.Tiles {
		if k.Pending() == 0 {
			return 0, 0, fmt.Errorf("core: deadlock at t=%d: no event pending with %d/%d cores done (%d refs retired)\n%s",
				k.Now(), s.phaseDone, cfg.Tiles, s.phaseTotal, proto.FormatStalls(s.Engine))
		}
		deadline := k.Now() + stallWindow
		if s.Sampler != nil && s.Sampler.Due() < deadline {
			deadline = s.Sampler.Due()
		}
		k.RunUntil(func() bool { return s.phaseDone == cfg.Tiles || k.Now() >= deadline })
		if err := proto.Stalled(s.Engine, k.Now()); err != nil {
			return 0, 0, err
		}
		if s.Sampler != nil && s.phaseDone < cfg.Tiles {
			s.Sampler.Tick()
		}
	}
	// Drain residual traffic (writebacks, acks) so counters are final,
	// and end the phase no earlier than its last retirement: a hit
	// retiring at the very end leaves no event behind to reach it.
	k.Run(0)
	k.AdvanceTo(s.phaseLastRetire)
	// Fencepost sample: the phase's final state, so warmup-vs-steady
	// curves always include the phase boundary.
	if s.Sampler != nil {
		s.Sampler.Snapshot()
	}
	return s.phaseLastRetire, s.phaseTotal, nil
}

// runPhaseParallel is runPhase on the conservative window executor.
// The phase loop runs RunParallel in stall-check chunks and reads only
// per-tile state between chunks (the stall rule, retired counts,
// per-driver retire times): the lanes retire concurrently, so there is
// no shared phase counter to consult. Lane counter views are armed for
// the duration and folded back before anything reads the root set.
func (s *System) runPhaseParallel(refs int) (sim.Time, uint64, error) {
	cfg := s.Cfg
	s.seedPhase(refs)
	s.Ctx.ArmLanes()
	defer s.Ctx.FoldLanes()
	target := uint64(refs) * uint64(cfg.Tiles)
	for s.SK.Pending() > 0 {
		s.SK.RunParallel(s.SK.Now() + stallWindow)
		if err := proto.Stalled(s.Engine, s.SK.Now()); err != nil {
			return 0, 0, err
		}
	}
	var lastRetire sim.Time
	total := uint64(0)
	for t := range s.drivers {
		if lr := s.drivers[t].lastRetire; lr > lastRetire {
			lastRetire = lr
		}
		total += uint64(s.retired[t])
	}
	if total != target {
		return 0, 0, fmt.Errorf("core: deadlock at t=%d: no event pending with %d/%d refs retired\n%s",
			s.SK.Now(), total, target, proto.FormatStalls(s.Engine))
	}
	s.SK.AdvanceTo(lastRetire)
	s.phaseTotal = total
	s.phaseLastRetire = lastRetire
	s.refsTotal += total
	return lastRetire, total, nil
}

// timedPhase runs one phase and records its PhaseStat. Between phases
// every lane's clock sits at the group's, so the hub clock is the
// executor's clock on both executors.
func (s *System) timedPhase(name string, refs int) (sim.Time, uint64, error) {
	wall := time.Now()
	cycles0, events0 := s.Kernel.Now(), s.eventsRun()
	lastRetire, totalRefs, err := s.runPhase(refs)
	s.phases = append(s.phases, PhaseStat{
		Name:   name,
		WallNS: time.Since(wall).Nanoseconds(),
		Cycles: s.Kernel.Now() - cycles0,
		Events: s.eventsRun() - events0,
		Refs:   totalRefs,
	})
	return lastRetire, totalRefs, err
}

// Phases returns the stats of every phase this system has run, in
// order: warmup (when run) and measure.
func (s *System) Phases() []PhaseStat { return s.phases }

// RunWarmup executes the optional warmup phase and discards its
// activity from every counter, leaving the system at the quiescent
// warmup/measure boundary: the kernel queue is drained, no misses are
// in flight, and all transient protocol state is gone.
func (s *System) RunWarmup() error {
	cfg := s.Cfg
	if cfg.WarmupRefs == 0 {
		return nil
	}
	if s.Sampler != nil {
		s.Sampler.SetPhase("warmup")
	}
	if _, _, err := s.timedPhase("warmup", cfg.WarmupRefs); err != nil {
		return err
	}
	s.Engine.Stats().Reset()
	s.Ctx.Profile = proto.MissProfile{}
	s.Net.ResetStats()
	s.Mem.Reads, s.Mem.Writes = 0, 0
	s.Ctx.ResetPerVM()
	for i := range s.vmHist {
		s.vmHist[i] = sim.Hist{}
	}
	return nil
}

// RunMeasure executes the measured phase from the current
// (post-warmup) state and returns the collected result.
func (s *System) RunMeasure() (*Result, error) {
	cfg := s.Cfg
	start := s.Kernel.Now() // the executor's clock (see timedPhase)
	if s.Sampler != nil {
		s.Sampler.SetPhase("measure")
	}
	lastRetire, totalRefs, err := s.timedPhase("measure", cfg.RefsPerCore)
	if err != nil {
		return nil, err
	}
	lastRetire -= start
	if cfg.Check {
		if err := s.Shadow.Err(); err != nil {
			return nil, err
		}
		s.Engine.CheckInvariants()
	}

	// Fold the per-VM banks into the global counters before anything
	// reads them: Result.Counters and the energy breakdown below then
	// hold exactly the off-mode values. The banks keep the split.
	s.Ctx.FoldPerVM()

	res := &Result{
		Config:       cfg,
		Executor:     s.Executor(),
		Cycles:       lastRetire,
		Refs:         totalRefs,
		Events:       s.phases[len(s.phases)-1].Events,
		Counters:     s.Engine.Stats(),
		Net:          s.Net.Stats(),
		Profile:      s.Engine.MissProfile(),
		MemReads:     s.Mem.Reads,
		DedupSavings: s.Mapper.SavedFraction(),
		Energies:     s.energies,
	}
	if s.Sampler != nil {
		res.Series = s.Sampler.Series()
	}
	res.Breakdown = power.Dynamic(res.Counters, res.Net, s.energies)
	if banks := s.Ctx.PerVMBanks(); banks != nil {
		res.PerVM = make([]VMStat, len(banks))
		for v := range banks {
			flits, routers := s.Ctx.PerVMNet(v)
			vs := &res.PerVM[v]
			vs.VM = v
			vs.Counters = banks[v]
			vs.Flits, vs.Routers = flits, routers
			// Price the VM's bank plus its attributed mesh traffic with
			// the same model that prices the global breakdown.
			vs.Breakdown = power.Dynamic(banks[v],
				mesh.Stats{FlitLinkCrossing: flits, RouterTraversals: routers}, s.energies)
			vs.MissLatency = s.vmHist[v]
			vs.P50 = vs.MissLatency.Percentile(0.50)
			vs.P99 = vs.MissLatency.Percentile(0.99)
			vs.P999 = vs.MissLatency.Percentile(0.999)
		}
		for t, n := range s.retired {
			vs := &res.PerVM[s.vmOf[t]]
			vs.Refs += uint64(n)
			vs.Tiles++
		}
	}
	return res, nil
}

// Run executes the optional warmup phase followed by the measured
// phase, and returns the collected result.
func (s *System) Run() (*Result, error) {
	if err := s.RunWarmup(); err != nil {
		return nil, err
	}
	return s.RunMeasure()
}

// Run builds and runs a system in one call.
func Run(cfg Config) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// CheckInvariants re-exports the engine's quiescent checker.
func (s *System) CheckInvariants() { s.Engine.CheckInvariants() }
