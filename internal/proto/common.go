// Package proto implements the four cache coherence protocols the
// paper evaluates: the optimized flat directory (with an NCID-style
// directory cache), the original Direct Coherence protocol (DiCo), and
// the paper's two contributions, DiCo-Providers and DiCo-Arin.
//
// All four are message-passing engines over the mesh: every tile has
// an L1 controller and an L2 bank controller, messages are pooled nodes
// with bound handlers, scheduled through mesh.Network with real per-hop
// latency and contention, and every structure access increments
// the power event counters of internal/power. All four share one
// message chassis (engine.go).
//
// Transaction races are handled with the same discipline real
// implementations use, reduced to its essentials: MSHR-pending blocks
// queue incoming requests at the requestor, ordering points queue
// conflicting requests per block, and over-forwarded requests fall
// back to the home and wait there (the paper's deadlock-avoidance
// mechanism). This preserves message counts, hop patterns and
// serialization without the full transient-state race matrix.
package proto

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// MissClass categorizes how an L1 miss was resolved, for the Figure 9b
// breakdown.
type MissClass int

// The six Figure 9b categories.
const (
	MissPredOwner      MissClass = iota // predicted; reached the owner directly
	MissPredProvider                    // predicted; reached a provider in the area
	MissPredFail                        // predicted wrong; resolved via the home
	MissUnpredOwner                     // unpredicted; home forwarded to an L1 owner
	MissUnpredProvider                  // unpredicted; a provider ended up supplying
	MissUnpredHome                      // unpredicted; home L2 or memory supplied
	NumMissClasses
)

// MissClassNames gives the Figure 9b legend strings.
var MissClassNames = [NumMissClasses]string{
	"pred-owner", "pred-provider", "pred-fail",
	"unpred-owner", "unpred-provider", "unpred-home",
}

// Engine is the interface the cores drive. At most one reference per
// tile may be outstanding (the cores are in-order and blocking).
type Engine interface {
	Name() string
	// Issue runs the full cache hierarchy + coherence for one memory
	// reference. An L1 hit is accounted at lookup time and reported by
	// returning true: it retires L1HitLatency cycles later and onDone is
	// never called, so the caller retires it without a kernel event. A
	// miss or a stall returns false and calls onDone when the reference
	// retires.
	Issue(tile topo.Tile, addr cache.Addr, write bool, onDone func()) (hit bool)
	// Access is Issue with the hit's retirement scheduled: onDone always
	// runs, L1HitLatency cycles after a hit's lookup.
	Access(tile topo.Tile, addr cache.Addr, write bool, onDone func())
	// Stats returns the engine's event counters (power events plus
	// protocol counters).
	Stats() *stats.Set
	// MissProfile returns per-class miss counts and link traversals.
	MissProfile() MissProfile
	// CheckInvariants panics with a description if the global
	// coherence state is inconsistent; used by the test suite.
	CheckInvariants()
	// ForEachCopy visits every valid cached copy of addr (L1s, plus
	// the home L2 bank) without touching access counters. Runtime
	// checkers use it to verify the SWMR invariant mid-simulation.
	ForEachCopy(addr cache.Addr, fn func(CopyInfo))
	// ForEachPending visits every outstanding MSHR entry on the chip.
	ForEachPending(fn func(tile topo.Tile, e *cache.MSHREntry))
}

// NewEngine builds the engine the protocol name selects: "directory",
// "dico", "providers" or "arin".
func NewEngine(name string, ctx *Context) (Engine, error) {
	switch name {
	case "directory":
		return NewDirectory(ctx), nil
	case "dico":
		return NewDiCo(ctx), nil
	case "providers":
		return NewProviders(ctx), nil
	case "arin":
		return NewArin(ctx), nil
	}
	return nil, fmt.Errorf("proto: unknown protocol %q", name)
}

// CopyInfo describes one cached copy of a block for ForEachCopy.
type CopyInfo struct {
	Tile      topo.Tile
	L2        bool // copy lives in the home L2 bank, not an L1
	Owner     bool // copy holds ownership in this protocol's sense
	Exclusive bool // copy is writable (M/E-class state)
	// Pending marks a copy whose tile has an in-flight MSHR entry for
	// the block (e.g. an ownership upgrade whose acks are still
	// outstanding): its state is transient, not settled.
	Pending bool
	Dirty   bool
	State   cache.State
}

// Observer receives retirement and completion events from an engine.
// The shadow-memory checker in internal/check implements it; a nil
// observer costs one pointer test per retirement and nothing else.
type Observer interface {
	// Retired is called exactly once per reference, at the simulation
	// time the reference semantically reads or writes the block: at
	// lookup time for hits, at fill/upgrade completion for misses.
	// invalidated reports that an invalidation hit the block while the
	// miss was in flight; for reads the filled line is being discarded
	// (the racing write serialized after this read).
	Retired(tile topo.Tile, addr cache.Addr, write, hit, invalidated bool)
}

// MissProfile aggregates the Figure 9b data.
type MissProfile struct {
	Count [NumMissClasses]uint64
	Links [NumMissClasses]uint64
	Hits  uint64 // L1 hits, for rate computations
}

// TotalMisses sums the class counts.
func (m MissProfile) TotalMisses() uint64 {
	var t uint64
	for _, c := range m.Count {
		t += c
	}
	return t
}

// MeanLinks returns the average links traversed by misses of class c.
func (m MissProfile) MeanLinks(c MissClass) float64 {
	if m.Count[c] == 0 {
		return 0
	}
	return float64(m.Links[c]) / float64(m.Count[c])
}

// Config collects the structural parameters shared by all protocols.
type Config struct {
	L1Sets, L1Ways   int
	L2Sets, L2Ways   int
	CCSets, CCWays   int // L1C$, L2C$ and directory cache geometry
	L1HitLatency     sim.Time
	L2TagLatency     sim.Time
	L2DataLatency    sim.Time
	BroadcastUnicast bool // emulate missing hardware broadcast (ablation)
	NoPrediction     bool // disable the L1C$ supplier prediction (ablation)
}

// DefaultConfig is Table III: 128 KB 4-way L1, 1 MB 8-way L2 bank,
// 2048-entry coherence caches, 1+2 cycle L1 and 2+3 cycle L2.
func DefaultConfig() Config {
	return Config{
		L1Sets: 512, L1Ways: 4,
		L2Sets: 2048, L2Ways: 8,
		CCSets: 512, CCWays: 4,
		L1HitLatency:  3,
		L2TagLatency:  2,
		L2DataLatency: 3,
	}
}

// DirWays returns the ways per set of the directory engine's directory
// cache. Directory information lives with every L2 entry (a full-map
// vector per line, Table V) plus the NCID directory cache for blocks
// that are in L1s but not in the L2, so the combined structure has
// L2Entries + CCEntries entries per bank: one array with at least one
// extra way per L2 set.
func (c Config) DirWays() int { return c.L2Ways + max(c.CCWays*c.CCSets/c.L2Sets, 1) }

// The analytic model's tag widths follow from the paper's 40-bit
// physical address and 64-byte blocks. A home-indexed array (L2, L2C$,
// directory cache) also drops the home-interleave bits, fixed at the
// paper's 64 tiles so Table VII's widths stay constant across core
// counts. Table V's L1C$ and L2C$ widths (23 and 17 bits at 512 sets)
// are ccTagGap bits narrower than this rule gives; every geometry keeps
// that gap.
const (
	physAddrBits    = 40
	blockOffsetBits = 6
	homeBits        = 6
	ccTagGap        = 2
)

// Storage derives the analytic model's per-tile geometry (Tables V–VII
// and the power model) from c on a chip of tiles tiles in areas areas:
// entries are sets × ways, and the directory cache holds the
// DirWays() − L2Ways ways per L2 set that carry no L2 line.
func (c Config) Storage(tiles, areas int) storage.Config {
	return storage.Config{
		Tiles:      tiles,
		Areas:      areas,
		L1Entries:  c.L1Sets * c.L1Ways,
		L2Entries:  c.L2Sets * c.L2Ways,
		CCEntries:  c.CCSets * c.CCWays,
		DirEntries: c.L2Sets * (c.DirWays() - c.L2Ways),
		L1Ways:     c.L1Ways,
		L2Ways:     c.L2Ways,
		CCWays:     c.CCWays,
		BlockBits:  8 << blockOffsetBits,
		L1TagBits:  tagBits(c.L1Sets, 0),
		L2TagBits:  tagBits(c.L2Sets, homeBits),
		DirTagBits: tagBits(c.L2Sets, homeBits),
		L1CTagBits: tagBits(c.CCSets, ccTagGap),
		L2CTagBits: tagBits(c.CCSets, homeBits+ccTagGap),
	}
}

// tagBits is the tag width of an array of sets sets that also drops
// less address bits.
func tagBits(sets, less int) int {
	return max(physAddrBits-blockOffsetBits-bits.TrailingZeros(uint(sets))-less, 0)
}

// CheckArrays reports the first cache array of c that cannot be built,
// or whose way word cannot hold every block below cache.MaxAddr.
func (c Config) CheckArrays() error {
	if err := checkArray("L1", c.L1Sets, c.L1Ways); err != nil {
		return err
	}
	if err := checkArray("L2", c.L2Sets, c.L2Ways); err != nil {
		return err
	}
	if err := checkArray("coherence cache", c.CCSets, c.CCWays); err != nil {
		return err
	}
	return checkArray("directory cache", c.L2Sets, c.DirWays())
}

// checkArray is CheckArrays for one array.
func checkArray(name string, sets, ways int) error {
	bound, err := cache.Geometry(sets, ways)
	if err == nil && bound < cache.MaxAddr {
		err = fmt.Errorf("%d sets of %d ways hold blocks below %#x only, short of cache.MaxAddr %#x",
			sets, ways, uint64(bound), uint64(cache.MaxAddr))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// PowerHandles holds pre-resolved counter handles for the power-event
// namespace of internal/power — the engines' hottest increment sites.
// bindPower resolves each handle exactly once per Context, so an event
// on the protocol fast path is a direct pointer bump instead of a map
// lookup in stats.Set. The counter names (and hence the export
// namespace seen by the power model and the obs manifest) are
// unchanged: handle X still feeds the counter power.EvX addresses.
type PowerHandles struct {
	L1TagRead, L1TagWrite   *stats.Counter
	L1DataRead, L1DataWrite *stats.Counter
	L2TagRead, L2TagWrite   *stats.Counter
	L2DataRead, L2DataWrite *stats.Counter
	DirRead, DirWrite       *stats.Counter
	L1CAccess, L1CUpdate    *stats.Counter
	L2CAccess, L2CUpdate    *stats.Counter
}

// Context wires one protocol engine to its chip.
type Context struct {
	Kernel *sim.Kernel
	Net    *mesh.Network
	Areas  *topo.Areas
	Mem    *memctrl.Controllers
	Cfg    Config

	Counters stats.Set
	Profile  MissProfile

	// pw points at the pre-resolved power-event counter set charged
	// now: pwRoot, or the charged VM's set under per-VM attribution.
	// Every engine constructor calls bindPower before first use.
	pw     *PowerHandles
	pwRoot PowerHandles

	// Observer, when non-nil, receives every reference retirement
	// (see Observer). It must not schedule events or mutate protocol
	// state, so an armed observer cannot perturb simulated timing.
	Observer Observer

	// Spans, when non-nil, is the causal transaction tracer: every L1
	// miss opens a span whose ID rides the kernel's causal tag through
	// the whole transaction (see internal/telemetry). The tracer never
	// schedules events, so arming it cannot perturb simulated timing.
	Spans *telemetry.Tracer

	// Per-VM attribution state (EnablePerVM), all nil when off. The
	// hot-path power sites charge ctx.pw unconditionally; chargeVM
	// points pw at the requesting VM's handles, so the ~200 existing
	// charge sites attribute per VM with no per-site change. The union
	// of the banks plus the globals is exactly the off-mode counter
	// set: FoldPerVM merges the banks back before results are built.
	vmOf      []int          // tile -> VM
	vmBanks   []*stats.Set   // one power-counter bank per VM
	vmPW      []PowerHandles // pre-resolved handles into each bank
	vmCur     int            // VM currently charged
	vmFlits   []uint64       // per-VM flit x link crossings (unicast sends)
	vmRouters []uint64       // per-VM router traversals (unicast sends)

	// Lane routing (SetLanes / ArmLanes / FoldLanes). When armed, At
	// resolves the executing tile to a per-lane Context view whose
	// Kernel is the tile's lane and whose Counters/Profile are private
	// banks, so every handler's downstream increments and schedules are
	// lane-local with no per-site change. Disarmed (the serial
	// executor), At returns the root context and behavior is bit-for-bit
	// the pre-lane engine.
	laneOf    []int
	lanes     []*sim.Kernel
	laneCtx   []*Context // non-nil = armed; shared by root and views
	laneViews []*Context // cached views, rebuilt only on SetLanes

	// view marks a lane view built by ArmLanes and lane is its lane
	// index: own checks every per-tile state access of a handler
	// running on the view against it. The root context never checks.
	view bool
	lane int

	// homeMask is NumTiles-1 for a power-of-two tile count, set by
	// bindHome when an engine is built; zero makes HomeOf divide.
	homeMask uint64

	// freeMemOp pools the deferred DRAM-access nodes and bcast holds
	// DiCo-Arin's per-destination broadcast arguments (per context, so
	// per lane when armed: each is single-threaded).
	freeMemOp *memOp
	bcast     []any
}

// spanBegin opens a tracing span for a miss issued at tile and makes
// it the kernel's current causal tag.
func (c *Context) spanBegin(tile topo.Tile, addr cache.Addr, write bool) {
	if c.Spans != nil {
		c.Spans.BeginMiss(tile, uint64(addr), write)
	}
}

// spanEnd closes the tile's open span with its resolved miss class.
func (c *Context) spanEnd(tile topo.Tile, class MissClass, dropped bool) {
	if c.Spans != nil {
		c.Spans.EndMiss(tile, MissClassNames[class], dropped)
	}
}

// spanRetry annotates the current span with a NACK-and-retry round.
func (c *Context) spanRetry(tile topo.Tile) {
	if c.Spans != nil {
		c.Spans.Retry(tile)
	}
}

// spanEvent appends a named protocol step on block addr to the current
// span. The block may differ from the span's own: an eviction, recall
// or L2 insertion that a miss causes lands in that miss's span.
func (c *Context) spanEvent(name string, tile topo.Tile, addr cache.Addr) {
	if c.Spans != nil {
		c.Spans.Annotate(name, tile, uint64(addr))
	}
}

// observeRetired forwards one retirement to the observer, if any.
func (c *Context) observeRetired(tile topo.Tile, addr cache.Addr, write, hit, dropped bool) {
	if c.Observer != nil {
		c.Observer.Retired(tile, addr, write, hit, dropped)
	}
}

// NumTiles returns the tile count of the chip.
func (c *Context) NumTiles() int { return c.Net.Grid().Tiles() }

// BankShift returns the number of low address bits used to select the
// home bank; per-bank structures skip them when indexing sets.
func (c *Context) BankShift() uint {
	s := uint(0)
	for 1<<s < c.NumTiles() {
		s++
	}
	return s
}

// HomeOf returns the home L2 bank of a block (address-interleaved
// across all banks, as in the paper). A power-of-two tile count masks
// the address (homeMask, bound with the engine); any other count, or a
// context no engine has bound yet, takes the modulus.
func (c *Context) HomeOf(a cache.Addr) topo.Tile {
	if c.homeMask != 0 {
		return topo.Tile(uint64(a) & c.homeMask)
	}
	return c.homeOfMod(a)
}

//go:noinline
func (c *Context) homeOfMod(a cache.Addr) topo.Tile {
	return topo.Tile(uint64(a) % uint64(c.NumTiles()))
}

// bindHome caches HomeOf's mask when the tile count is a power of two.
// On a single tile the mask is zero and HomeOf's modulus gives tile 0.
func (c *Context) bindHome() {
	if n := uint64(c.NumTiles()); n&(n-1) == 0 {
		c.homeMask = n - 1
	}
}

// bindPower resolves the power-event counter handles. Registering
// every name up front (in the power package's declaration order) also
// fixes the counter namespace: all four protocols export the same
// counter set in the same order, which keeps manifests comparable
// across protocols.
func (c *Context) bindPower() {
	if c.pw != nil {
		return
	}
	// Always register the 14 names on the global set first (fixes the
	// export namespace even when every charge lands in a per-VM bank),
	// then, with per-VM attribution armed, start charging VM 0's bank
	// so no pre-first-chargeVM activity bypasses the split.
	c.pwRoot = bindBank(&c.Counters)
	c.pw = &c.pwRoot
	if c.vmPW != nil {
		c.pw = &c.vmPW[c.vmCur]
	}
}

// bindBank resolves a PowerHandles set into an arbitrary counter set
// (bindPower's body, reused for the per-VM banks so every bank
// registers the same 14 names in the same order as the globals).
func bindBank(s *stats.Set) PowerHandles {
	return PowerHandles{
		L1TagRead: s.Handle(power.EvL1TagRead), L1TagWrite: s.Handle(power.EvL1TagWrite),
		L1DataRead: s.Handle(power.EvL1DataRead), L1DataWrite: s.Handle(power.EvL1DataWrite),
		L2TagRead: s.Handle(power.EvL2TagRead), L2TagWrite: s.Handle(power.EvL2TagWrite),
		L2DataRead: s.Handle(power.EvL2DataRead), L2DataWrite: s.Handle(power.EvL2DataWrite),
		DirRead: s.Handle(power.EvDirRead), DirWrite: s.Handle(power.EvDirWrite),
		L1CAccess: s.Handle(power.EvL1CAccess), L1CUpdate: s.Handle(power.EvL1CUpdate),
		L2CAccess: s.Handle(power.EvL2CAccess), L2CUpdate: s.Handle(power.EvL2CUpdate),
	}
}

// EnablePerVM arms per-VM attribution: one counter bank per VM, with
// the hot-path handle set (ctx.pw) re-pointed at the requesting VM's
// bank on every handler entry (chargeVM). Must be called before the
// engine is constructed, so bindPower still resolves the global
// handles first. Activity before the first chargeVM of a run lands on
// VM 0.
func (c *Context) EnablePerVM(vmOf []int, numVMs int) {
	c.vmOf = vmOf
	c.vmBanks = make([]*stats.Set, numVMs)
	c.vmPW = make([]PowerHandles, numVMs)
	for v := range c.vmBanks {
		c.vmBanks[v] = &stats.Set{}
		c.vmPW[v] = bindBank(c.vmBanks[v])
	}
	c.vmFlits = make([]uint64, numVMs)
	c.vmRouters = make([]uint64, numVMs)
	c.vmCur = 0
}

// chargeVM attributes subsequent power events and sends to the VM
// owning tile t (the requestor of the transaction being handled).
// One pointer test when per-VM attribution is off; a switch re-points
// pw rather than copying the handle set.
func (c *Context) chargeVM(t topo.Tile) {
	if c.vmPW == nil {
		return
	}
	if vm := c.vmOf[t]; vm != c.vmCur {
		c.vmCur = vm
		c.pw = &c.vmPW[vm]
	}
}

// vmSend attributes one unicast's network activity to the charged VM,
// mirroring the mesh's own accounting (hops x flits link crossings,
// hops+1 router traversals).
func (c *Context) vmSend(d mesh.Delivery, flits int) {
	if c.vmFlits == nil {
		return
	}
	c.vmFlits[c.vmCur] += uint64(d.Hops * flits)
	c.vmRouters[c.vmCur] += uint64(d.Routers)
}

// PerVMBanks returns the per-VM counter banks (nil when off).
func (c *Context) PerVMBanks() []*stats.Set { return c.vmBanks }

// PerVMNet returns the charged VM's unicast network activity.
func (c *Context) PerVMNet(vm int) (flits, routers uint64) {
	return c.vmFlits[vm], c.vmRouters[vm]
}

// ResetPerVM discards per-VM attribution collected so far (the
// warmup/measure boundary).
func (c *Context) ResetPerVM() {
	for v, b := range c.vmBanks {
		b.Reset()
		c.vmFlits[v] = 0
		c.vmRouters[v] = 0
	}
}

// FoldPerVM merges every VM bank back into the global counters. The
// run loop calls it exactly once, when the measured phase ends:
// afterwards the global set holds exactly the values an off-mode run
// produces, and the banks still hold the per-VM split for the result.
func (c *Context) FoldPerVM() {
	for _, b := range c.vmBanks {
		c.Counters.Merge(b)
	}
}

// SetLanes registers the sharded lane kernels and the tile->lane map.
// The system calls it once at construction whenever the run is
// sharded; it only takes effect for a phase when ArmLanes is called.
func (c *Context) SetLanes(laneOf []int, lanes []*sim.Kernel) {
	c.laneOf = laneOf
	c.lanes = lanes
	c.laneViews = nil
	c.laneCtx = nil
}

// ArmLanes switches At to per-lane context views for a RunParallel
// phase. Views share the chip (Net, Areas, Mem, Cfg) but own their
// Kernel, Counters, Profile and power handles; spans, the observer
// and per-VM attribution stay root-only, which is safe because the
// parallel executor is only eligible when they are off.
func (c *Context) ArmLanes() {
	if c.lanes == nil || c.laneCtx != nil {
		return
	}
	if c.laneViews == nil {
		c.laneViews = make([]*Context, len(c.lanes))
		for i, k := range c.lanes {
			v := &Context{
				Kernel:   k,
				Net:      c.Net,
				Areas:    c.Areas,
				Mem:      c.Mem,
				Cfg:      c.Cfg,
				laneOf:   c.laneOf,
				lanes:    c.lanes,
				view:     true,
				lane:     i,
				homeMask: c.homeMask,
			}
			v.pwRoot = bindBank(&v.Counters)
			v.pw = &v.pwRoot
			c.laneViews[i] = v
		}
	}
	c.laneCtx = c.laneViews
	for _, v := range c.laneViews {
		v.laneCtx = c.laneViews
	}
}

// FoldLanes merges every lane view's counters and miss profile back
// into the root context and disarms the views. The parallel run loop
// calls it at each phase boundary, so results and crosscheck
// fingerprints always read the folded root set.
func (c *Context) FoldLanes() {
	if c.laneCtx == nil {
		return
	}
	for _, v := range c.laneViews {
		v.laneCtx = nil
		c.Counters.Merge(&v.Counters)
		v.Counters.Reset()
		for i := range v.Profile.Count {
			c.Profile.Count[i] += v.Profile.Count[i]
			c.Profile.Links[i] += v.Profile.Links[i]
		}
		c.Profile.Hits += v.Profile.Hits
		v.Profile = MissProfile{}
	}
	c.laneCtx = nil
}

// At resolves the context view for a handler executing at tile t:
// the tile's lane view when lanes are armed, the root context
// otherwise. Every engine handler binds its working context through
// At at entry — that single line is what makes all its downstream
// counter bumps, sends and schedules lane-local under RunParallel.
func (c *Context) At(t topo.Tile) *Context {
	if c.laneCtx == nil {
		return c
	}
	return c.laneCtx[c.laneOf[t]]
}

// Lane returns the executor lane that runs tile t's handlers (0 when
// the run is not sharded). The engines' message pools index by lane,
// not tile: a pool is only ever touched by its own lane, and within a
// lane takes and puts balance regardless of which tiles exchange the
// nodes — per-tile pools would leak nodes toward sink tiles (homes)
// and allocate forever at source tiles.
func (c *Context) Lane(t topo.Tile) int {
	if c.laneOf == nil {
		return 0
	}
	return c.laneOf[t]
}

// own is the lane-ownership check: it panics when a lane view reaches
// the state of tile t although another lane owns t. A handler binds its
// view with At at entry, so a panic here means the handler touched a
// remote tile synchronously instead of sending it a message. The root
// context (serial runs) checks nothing.
func (c *Context) own(t topo.Tile) {
	if c.view && c.laneOf[t] != c.lane {
		panic(laneViolation{tile: t, lane: c.lane, owner: c.laneOf[t]})
	}
}

// laneViolation is the panic value of a failed ownership check.
type laneViolation struct {
	tile        topo.Tile
	lane, owner int
}

func (v laneViolation) Error() string {
	return fmt.Sprintf("proto: handler on lane %d reached tile %d, owned by lane %d", v.lane, v.tile, v.owner)
}

// memOp is one pooled deferred DRAM access (see MemFetch/MemFlush).
type memOp struct {
	next *memOp
	c    *Context
	fn   func(any)
	arg  any
	at   sim.Time
	tag  uint64
}

// MemFetch models a DRAM read at the executing memory-controller
// tile: fn(arg) runs on that tile's lane after the sampled read
// latency. Inside a RunParallel window the latency draw itself is
// deferred to the window barrier — the controllers' random stream and
// read counter are chip-global, so sampling in merged event order is
// what keeps them identical to the serial executor — and the response
// is injected with its barrier-reserved sequence number.
func (c *Context) MemFetch(fn func(any), arg any) {
	k := c.Kernel
	if !k.Deferring() {
		k.AfterArg(c.Mem.ReadLatency(), fn, arg)
		return
	}
	op := c.freeMemOp
	if op == nil {
		op = &memOp{}
	} else {
		c.freeMemOp = op.next
	}
	op.c, op.fn, op.arg, op.at, op.tag = c, fn, arg, k.Now(), k.Tag()
	k.Defer(1, resolveMemFetch, op)
}

func resolveMemFetch(a any, seqBase uint64) {
	op := a.(*memOp)
	c := op.c
	lat := c.Mem.ReadLatency()
	c.Kernel.InjectResolved(op.at+lat, seqBase, op.tag, op.fn, op.arg)
	op.fn, op.arg = nil, nil
	op.next, c.freeMemOp = c.freeMemOp, op
}

// MemFlush models a DRAM writeback at the executing controller tile:
// the write latency is drawn and discarded (no event depends on it),
// but the draw still advances the chip-global random stream and write
// counter, so inside a window it is deferred to the barrier to keep
// the stream in merged order.
func (c *Context) MemFlush() {
	k := c.Kernel
	if !k.Deferring() {
		c.Mem.WriteLatency()
		return
	}
	k.Defer(0, resolveMemFlush, c)
}

func resolveMemFlush(a any, _ uint64) {
	a.(*Context).Mem.WriteLatency()
}

// SendCtlArg sends a 1-flit control message through the kernel's
// non-capturing form: fn(arg) runs on delivery, returning the delivery
// metadata. The engines pass a handler bound once and a pooled
// *message, so no closure is built per message.
func (c *Context) SendCtlArg(src, dst topo.Tile, fn func(any), arg any) mesh.Delivery {
	d := c.Net.SendArg(src, dst, c.Net.Config().ControlFlits, fn, arg)
	c.vmSend(d, c.Net.Config().ControlFlits)
	return d
}

// SendDataArg sends a 5-flit data message likewise.
func (c *Context) SendDataArg(src, dst topo.Tile, fn func(any), arg any) mesh.Delivery {
	d := c.Net.SendArg(src, dst, c.Net.Config().DataFlits, fn, arg)
	c.vmSend(d, c.Net.Config().DataFlits)
	return d
}

// tileState is one tile's storage. The L1 and L2 arrays carry the
// engine's line payload P (cache.BareLine for the flat directory,
// cache.Line for the DiCo family); the rest is built only for the
// engines that read it.
type tileState[P any] struct {
	l1   *cache.Array[P]
	l2   *cache.Array[P]
	dir  *cache.Array[cache.DirLine] // directory cache (flat directory only)
	l1c  *cache.PointerCache         // supplier predictions (DiCo family only)
	l2c  *cache.PointerCache         // precise owner pointers (DiCo family only)
	mshr *cache.MSHR

	// tx holds all transient per-block state of this tile — the
	// stalled L1/home waiter queues, the home-busy and blocked flags
	// and the recall mark — in pooled records (see txtable.go). The
	// accessors below are the only way in.
	tx txTable

	// stamps is the per-block ownership-update stamp store (the
	// stale-update guard). A stamp outlives its transaction by up to
	// one mesh latency horizon, so stamps live in their own flat table
	// (purged against that horizon) instead of pinning txRecords.
	stamps stampTable
}

// newTileState builds a tile's arrays through newArray; the L2 skips
// the bank-select bits of the address. A DiCo-family tile (dico) also
// gets its L1C$ and L2C$; the directory adds its directory cache itself.
func newTileState[P any](cfg Config, bankShift uint, dico bool,
	newArray func(name string, sets, ways int) *cache.Array[P]) *tileState[P] {
	t := &tileState[P]{
		l1: newArray("l1", cfg.L1Sets, cfg.L1Ways),
		l2: newArray("l2", cfg.L2Sets, cfg.L2Ways),
		// Unlimited capacity is safe because the blocking in-order core
		// model keeps at most a handful of misses in flight per tile;
		// MSHR lookups are linear scans, so a future core model with
		// high miss-level parallelism should set a real capacity (or the
		// MSHR should grow an index) before raising this.
		mshr:   cache.NewMSHR(0),
		tx:     newTxTable(),
		stamps: newStampTable(),
	}
	t.l2.SetIndexShift(bankShift)
	if dico {
		t.l1c = cache.NewPointerCache("l1c", cfg.CCSets, cfg.CCWays)
		t.l2c = cache.NewPointerCache("l2c", cfg.CCSets, cfg.CCWays)
		t.l2c.SetIndexShift(bankShift)
	}
	return t
}

// stallL1 queues fn(arg), a bound handler and its pooled *message, to
// run when the L1's outstanding transaction on a completes.
func (t *tileState[P]) stallL1(a cache.Addr, fn func(any), arg any) {
	r := t.tx.ensure(a)
	w := t.tx.getWaiter(fn, arg)
	if r.l1Tail == nil {
		r.l1Head = w
	} else {
		r.l1Tail.next = w
	}
	r.l1Tail = w
}

// wakeL1 reschedules everything stalled on a at this L1, in stall
// (FIFO) order.
func (t *tileState[P]) wakeL1(k *sim.Kernel, a cache.Addr) {
	r := t.tx.get(a)
	if r == nil || r.l1Head == nil {
		return
	}
	w := r.l1Head
	r.l1Head, r.l1Tail = nil, nil
	for w != nil {
		next := w.next
		k.AfterArg(1, w.fn, w.arg)
		t.tx.putWaiter(w)
		w = next
	}
	t.tx.maybeRelease(r)
}

// stallHomeArg queues fn(arg) at the home bank until the block's home
// state changes.
func (t *tileState[P]) stallHomeArg(a cache.Addr, fn func(any), arg any) {
	r := t.tx.ensure(a)
	w := t.tx.getWaiter(fn, arg)
	if r.homeTail == nil {
		r.homeHead = w
	} else {
		r.homeTail.next = w
	}
	r.homeTail = w
}

// wakeHome reschedules requests stalled at this home bank on a, in
// stall (FIFO) order.
func (t *tileState[P]) wakeHome(k *sim.Kernel, a cache.Addr) {
	r := t.tx.get(a)
	if r == nil || r.homeHead == nil {
		return
	}
	w := r.homeHead
	r.homeHead, r.homeTail = nil, nil
	for w != nil {
		next := w.next
		k.AfterArg(1, w.fn, w.arg)
		t.tx.putWaiter(w)
		w = next
	}
	t.tx.maybeRelease(r)
}

// homeBusy reports whether a home-serialized operation (chip-wide
// invalidation, broadcast, recall) is in progress on a at this bank.
func (t *tileState[P]) homeBusy(a cache.Addr) bool {
	r := t.tx.get(a)
	return r != nil && r.flags&txHomeBusy != 0
}

func (t *tileState[P]) setHomeBusy(a cache.Addr) { t.tx.ensure(a).flags |= txHomeBusy }

func (t *tileState[P]) clearHomeBusy(a cache.Addr) {
	if r := t.tx.get(a); r != nil {
		r.flags &^= txHomeBusy
		t.tx.maybeRelease(r)
	}
}

// blocked reports whether a is frozen at this L1 by DiCo-Arin's
// three-phase broadcast.
func (t *tileState[P]) blocked(a cache.Addr) bool {
	r := t.tx.get(a)
	return r != nil && r.flags&txBlocked != 0
}

func (t *tileState[P]) setBlocked(a cache.Addr) { t.tx.ensure(a).flags |= txBlocked }

func (t *tileState[P]) clearBlocked(a cache.Addr) {
	if r := t.tx.get(a); r != nil {
		r.flags &^= txBlocked
		t.tx.maybeRelease(r)
	}
}

// recallMarked reports whether an ownership recall is in flight for a
// at this home bank.
func (t *tileState[P]) recallMarked(a cache.Addr) bool {
	r := t.tx.get(a)
	return r != nil && r.flags&txRecall != 0
}

func (t *tileState[P]) markRecall(a cache.Addr) { t.tx.ensure(a).flags |= txRecall }

func (t *tileState[P]) clearRecall(a cache.Addr) {
	if r := t.tx.get(a); r != nil {
		r.flags &^= txRecall
		t.tx.maybeRelease(r)
	}
}

// stampIfNewer records an ownership-update stamp for a and reports
// whether it is current: it returns false — leaving the stored stamp
// alone — when a strictly newer update was already applied, the guard
// the homes use to drop stale in-flight ownership updates. ctx is the
// home's context; a home-side decision stamps ctx.Kernel.Now(), which
// no stored stamp exceeds. The floor is computed only when the table
// rebuilds (see stampTable).
func (t *tileState[P]) stampIfNewer(ctx *Context, a cache.Addr, s sim.Time) bool {
	applied, full := t.stamps.update(a, s)
	if full {
		t.stamps.rebuild(stampFloor(ctx))
	}
	return applied
}

// stampFloor is the oldest stamp an ownership update still in flight
// at ctx's clock can carry: updates are checked on arrival, and none
// has been in flight longer than the mesh's longest latency so far.
func stampFloor(ctx *Context) sim.Time {
	now, horizon := ctx.Kernel.Now(), ctx.Net.MaxLatency()
	if now < horizon {
		return 0
	}
	return now - horizon
}

// queueLens reports the depths of a's stalled L1 and home queues, for
// debug dumps.
func (t *tileState[P]) queueLens(a cache.Addr) (l1, home int) {
	if r := t.tx.get(a); r != nil {
		for w := r.l1Head; w != nil; w = w.next {
			l1++
		}
		for w := r.homeHead; w != nil; w = w.next {
			home++
		}
	}
	return l1, home
}

// maxForwards bounds request forwarding before the request backs off
// and retries from the home — the paper's deadlock-avoidance
// mechanism.
const maxForwards = 4

// retryBackoff is the delay before a request that forwarded too many
// times retries from scratch at the home. A plain stall would risk a
// lost wakeup (the state may have settled just before the stall);
// NACK-and-retry guarantees progress.
const retryBackoff sim.Time = 48

// bit returns a bit mask for tile t within a full-map vector.
func bit(t topo.Tile) uint64 { return 1 << uint(t) }

// popcount returns the number of set bits.
func popcount(v uint64) int { return bits.OnesCount64(v) }

// dropCopy invalidates the tile's L1 copy of addr, marks a miss in
// flight on it as racing the invalidation, and returns the dropped line.
func (t *tileState[P]) dropCopy(ctx *Context, addr cache.Addr) (P, bool) {
	ctx.pw.L1TagRead.Inc()
	old, ok := t.l1.Invalidate(addr)
	if ok {
		ctx.pw.L1TagWrite.Inc()
	}
	if e, pending := t.mshr.Lookup(addr); pending {
		e.InvalidatedWhilePending = true
	}
	return old, ok
}
