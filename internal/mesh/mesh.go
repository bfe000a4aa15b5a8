// Package mesh models the on-chip interconnection network: a 2D mesh
// with XY (dimension-order) routing, per-link contention, and the
// spanning-tree broadcast support the paper adds to Garnet.
//
// The model is contention-aware but message-granular: when a message is
// sent, its whole path is walked immediately, reserving each directed
// link for the message's flit count and accumulating per-hop latency
// (2 cycles/link + 2 cycles/switch + 1 cycle/router in Table III).
// Because the simulation kernel executes same-cycle events in FIFO
// order, reservations serialize deterministically.
package mesh

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Direction of a mesh link leaving a router.
type Direction int

// Mesh link directions.
const (
	East Direction = iota
	West
	North
	South
	numDirections
)

// Config holds the network timing and packet geometry (Table III).
type Config struct {
	LinkCycles   int  // cycles to traverse one link
	SwitchCycles int  // cycles through the crossbar/switch
	RouterCycles int  // cycles of router pipeline
	ControlFlits int  // flits in a control packet
	DataFlits    int  // flits in a data packet
	Contention   bool // model per-link occupancy
}

// DefaultConfig is the paper's Table III network: 2 cycles/link,
// 2 cycles/switch, 1 cycle/router, 16-byte flits, 1-flit control and
// 5-flit data packets, contention on.
func DefaultConfig() Config {
	return Config{
		LinkCycles:   2,
		SwitchCycles: 2,
		RouterCycles: 1,
		ControlFlits: 1,
		DataFlits:    5,
		Contention:   true,
	}
}

// Stats aggregates the network activity counters the power model needs.
type Stats struct {
	Messages         uint64 // unicast messages sent
	Broadcasts       uint64 // broadcast operations
	FlitLinkCrossing uint64 // flit x link traversals (link energy unit)
	RouterTraversals uint64 // message x router traversals (routing energy unit)
	TotalHops        uint64 // link hops summed over unicast messages
	TotalLatency     uint64 // head latency summed over unicast messages
	QueueingCycles   uint64 // cycles spent waiting on busy links
}

// Observer receives one callback per injected message or broadcast,
// at injection time (when the whole path has been walked and the
// arrival scheduled). It is the telemetry tap for causal transaction
// tracing: because it fires synchronously inside SendArg, the kernel's
// causal tag at call time identifies the transaction the message
// belongs to. Observers must be pure — they may not send messages or
// schedule events.
type Observer interface {
	// Message reports one unicast: its endpoints, flit count, the
	// injection and arrival cycles, and the link hops traversed. The
	// route itself is not passed because XY routing makes it a pure
	// function of (src, dst).
	Message(src, dst topo.Tile, flits int, depart, arrive sim.Time, hops int)
	// BroadcastDone reports one spanning-tree (or emulated unicast)
	// broadcast: the source, flit count, tree links used and the
	// latency to the farthest destination.
	BroadcastDone(src topo.Tile, flits, links int, maxLat sim.Time)
}

// Network is the mesh interconnect for one chip.
type Network struct {
	kernel *sim.Kernel
	grid   topo.Grid
	cfg    Config

	linkFree []sim.Time // [tile*numDirections + dir] next free cycle
	stats    Stats
	obs      Observer // nil = no tap

	// maxLat is the longest cross-tile unicast latency scheduled so
	// far, starting at one hop (see MaxLatency). Written only by the
	// serial send path and by resolveSend at the window barrier, so
	// lanes may read it during a parallel window.
	maxLat sim.Time

	// Sharded delivery (SetSharding): each tile's arrivals are scheduled
	// on its shard's kernel lane, and cross-shard deliveries are checked
	// against the conservative lookahead. nil = all deliveries on kernel.
	deliver []*sim.Kernel // [tile] delivery kernel
	shardOf []int         // [tile] shard index

	// Parallel-window state (only used while a lane kernel reports
	// Deferring). Cross-tile sends mutate link reservations and the
	// shared counters, so inside a window they are logged as pooled
	// barrier-deferred ops and replayed at the barrier in exact merged
	// serial order. Same-tile sends touch no links; their counters go to
	// the sender lane's private bank, folded in by Stats(). The pools
	// are per sender lane: a lane's goroutine pops during its window,
	// the single-threaded barrier pushes back.
	laneStats []Stats      // [lane] same-tile counter bank
	sendPool  [][]*sendOp  // [lane] free deferred-unicast ops
	bcastPool [][]*bcastOp // [lane] free deferred-broadcast ops

	// Scratch buffer reused across calls to keep the broadcast hot
	// path allocation-free. Fully rewritten before use and never live
	// past the call that fills it (deliveries are scheduled through
	// the kernel, so Broadcast never re-enters).
	arrival []sim.Time // per-tile broadcast arrival, indexed by tile id
}

// sendOp is one cross-tile unicast deferred to the window barrier.
type sendOp struct {
	n        *Network
	src, dst topo.Tile
	lane     int32
	flits    int32
	sendAt   sim.Time
	tag      uint64
	argFn    func(any)
	arg      any
}

// bcastOp is one spanning-tree broadcast deferred to the window barrier.
type bcastOp struct {
	n       *Network
	src     topo.Tile
	lane    int32
	flits   int32
	sendAt  sim.Time
	tag     uint64
	deliver func(any)
	args    []any // per destination tile, copied from Broadcast's
}

// New returns a network over grid driven by kernel.
func New(kernel *sim.Kernel, grid topo.Grid, cfg Config) *Network {
	return &Network{
		kernel:   kernel,
		grid:     grid,
		cfg:      cfg,
		linkFree: make([]sim.Time, grid.Tiles()*int(numDirections)),
		arrival:  make([]sim.Time, grid.Tiles()),
		maxLat:   cfg.HopLatency(),
	}
}

// SetObserver attaches (or with nil detaches) the message tap.
func (n *Network) SetObserver(o Observer) { n.obs = o }

// SetSharding routes each tile's deliveries to its shard's kernel lane:
// deliver[shardOf[t]] is the kernel that dispatches arrivals at tile t.
// The mesh is the only cross-shard channel in the system, so this is
// the single place conservative sharding touches message flow; the
// per-delivery lookahead assert below is the ownership guarantee the
// executors rely on. Pass (nil, nil) to revert to single-kernel mode.
func (n *Network) SetSharding(deliver []*sim.Kernel, shardOf []int) {
	if deliver == nil {
		n.deliver, n.shardOf = nil, nil
		n.laneStats, n.sendPool, n.bcastPool = nil, nil, nil
		return
	}
	lanes := 0
	for _, s := range shardOf {
		if s+1 > lanes {
			lanes = s + 1
		}
	}
	n.laneStats = make([]Stats, lanes)
	n.sendPool = make([][]*sendOp, lanes)
	n.bcastPool = make([][]*bcastOp, lanes)
	if len(shardOf) != n.grid.Tiles() {
		panic(fmt.Sprintf("mesh: shard map covers %d tiles, grid has %d", len(shardOf), n.grid.Tiles()))
	}
	kernels := make([]*sim.Kernel, n.grid.Tiles())
	for t, s := range shardOf {
		if s < 0 || s >= len(deliver) {
			panic(fmt.Sprintf("mesh: tile %d mapped to shard %d of %d", t, s, len(deliver)))
		}
		kernels[t] = deliver[s]
	}
	n.deliver, n.shardOf = kernels, shardOf
}

// Lookahead returns the conservative synchronization horizon the mesh
// guarantees: any message between distinct tiles takes at least one
// full hop (link + switch + router), so a shard never receives work
// less than Lookahead cycles in the future from another shard.
func (n *Network) Lookahead() sim.Time { return n.hopLatency() }

// MaxLatency returns the longest unicast latency the mesh has scheduled
// so far, never less than one hop: every message in flight at time t
// was sent at or after t - MaxLatency(). The bound covers the parallel
// executor too. A cross-tile send inside a window is recorded at the
// window's barrier, but a window spans fewer than HopLatency cycles, so
// until then its sender's clock already lies within one hop of any
// lane's clock. Same-tile sends (switch and router only) are shorter
// than a hop and are not recorded.
func (n *Network) MaxLatency() sim.Time { return n.maxLat }

// deliverKernel returns the kernel that dispatches arrivals at dst.
func (n *Network) deliverKernel(dst topo.Tile) *sim.Kernel {
	if n.deliver == nil {
		return n.kernel
	}
	return n.deliver[dst]
}

// checkLookahead asserts the conservative-PDES ownership contract on a
// cross-shard delivery: the arrival must lie at least one hop latency
// past injection time. Unreachable for a correctly routed message (a
// cross-shard message crosses >= 1 boundary link by construction), so
// a hit means the partition or the timing model was broken.
func (n *Network) checkLookahead(src, dst topo.Tile, now, at sim.Time) {
	if n.shardOf == nil || n.shardOf[src] == n.shardOf[dst] {
		return
	}
	if at < now+n.hopLatency() {
		panic(fmt.Sprintf("mesh: cross-shard delivery %d->%d at +%d cycles, below lookahead %d",
			src, dst, at-now, n.hopLatency()))
	}
}

// Stats returns a copy of the accumulated counters, with any per-lane
// same-tile banks folded in. The banks hold plain sums, so the merged
// value is identical to what a serial run accumulates in one struct.
func (n *Network) Stats() Stats {
	s := n.stats
	for i := range n.laneStats {
		b := &n.laneStats[i]
		s.Messages += b.Messages
		s.Broadcasts += b.Broadcasts
		s.FlitLinkCrossing += b.FlitLinkCrossing
		s.RouterTraversals += b.RouterTraversals
		s.TotalHops += b.TotalHops
		s.TotalLatency += b.TotalLatency
		s.QueueingCycles += b.QueueingCycles
	}
	return s
}

// ResetStats zeroes the activity counters (used to discard a warmup
// phase); link reservations are left intact.
func (n *Network) ResetStats() {
	n.stats = Stats{}
	for i := range n.laneStats {
		n.laneStats[i] = Stats{}
	}
}

// Grid returns the mesh dimensions.
func (n *Network) Grid() topo.Grid { return n.grid }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// HopLatency returns the head latency of one full mesh hop (link +
// switch + router). It doubles as the conservative sharding lookahead:
// no message between distinct tiles can arrive sooner.
func (c Config) HopLatency() sim.Time {
	return sim.Time(c.LinkCycles + c.SwitchCycles + c.RouterCycles)
}

func (n *Network) hopLatency() sim.Time { return n.cfg.HopLatency() }

// reserveLink reserves the directed link (tile, dir) for flits cycles
// starting no earlier than at; it returns the actual start time.
func (n *Network) reserveLink(tile topo.Tile, dir Direction, at sim.Time, flits int) sim.Time {
	idx := int(tile)*int(numDirections) + int(dir)
	start := at
	if n.cfg.Contention && n.linkFree[idx] > start {
		n.stats.QueueingCycles += uint64(n.linkFree[idx] - start)
		start = n.linkFree[idx]
	}
	if n.cfg.Contention {
		n.linkFree[idx] = start + sim.Time(flits)
	}
	return start
}

// Delivery describes the outcome of a SendArg: when the message arrives
// and how much network it consumed.
type Delivery struct {
	Latency sim.Time // head-flit latency plus serialization
	Hops    int      // links traversed
	Routers int      // routers traversed (hops + 1)
}

// SendArg injects a message of flits flits from src to dst and schedules
// deliver(arg) to run at its arrival time, through the kernel's
// non-capturing form: senders pass a long-lived function plus a small
// argument, so no closure is built per message. It returns the computed
// delivery metadata immediately (the model walks the path at injection
// time).
func (n *Network) SendArg(src, dst topo.Tile, flits int, deliver func(any), arg any) Delivery {
	if !n.grid.Contains(src) || !n.grid.Contains(dst) {
		panic(fmt.Sprintf("mesh: SendArg between invalid tiles %d -> %d", src, dst))
	}
	if flits <= 0 {
		panic("mesh: message must have at least one flit")
	}
	// The clock is read from the sender tile's lane: every SendArg executes
	// on the lane owning src (the engines schedule their handlers on the
	// executing tile's kernel). On the serial kernel that is the only
	// kernel; inside a parallel window it is the only clock that exists.
	k := n.deliverKernel(src)
	now := k.Now()
	if src == dst {
		// Same-tile delivery through the local router/crossbar only. No
		// link is touched, so this path stays in-window under the parallel
		// executor; its counters go to the sender lane's bank there.
		st := &n.stats
		if k.Deferring() {
			st = &n.laneStats[n.shardOf[src]]
		}
		lat := sim.Time(n.cfg.SwitchCycles + n.cfg.RouterCycles)
		st.Messages++
		st.RouterTraversals++
		st.TotalLatency += uint64(lat)
		n.deliverKernel(dst).AtArg(now+lat, deliver, arg)
		if n.obs != nil {
			n.obs.Message(src, dst, flits, now, now+lat, 0)
		}
		return Delivery{Latency: lat, Hops: 0, Routers: 1}
	}
	if k.Deferring() {
		return n.deferSend(k, src, dst, flits, deliver, arg, now)
	}
	n.stats.Messages++
	t, hops := n.walkXY(src, dst, now, flits)
	// Tail flit serialization at the destination.
	lat := t - now + sim.Time(flits-1)
	n.stats.FlitLinkCrossing += uint64(hops * flits)
	n.stats.RouterTraversals += uint64(hops + 1)
	n.stats.TotalHops += uint64(hops)
	n.stats.TotalLatency += uint64(lat)
	n.maxLat = max(n.maxLat, lat)
	n.deliverKernel(dst).AtArg(now+lat, deliver, arg)
	if n.obs != nil {
		n.obs.Message(src, dst, flits, now, now+lat, hops)
	}
	return Delivery{Latency: lat, Hops: hops, Routers: hops + 1}
}

// walkXY walks the XY route from src to dst starting at cycle at,
// reserving each link crossing as the head flit reaches it (no
// materialized path). It returns the head arrival time and hop count.
func (n *Network) walkXY(src, dst topo.Tile, at sim.Time, flits int) (sim.Time, int) {
	x, y := n.grid.Coord(src)
	dx, dy := n.grid.Coord(dst)
	t := at
	hops := 0
	for x != dx {
		dir := East
		nx := x + 1
		if dx < x {
			dir = West
			nx = x - 1
		}
		start := n.reserveLink(n.grid.At(x, y), dir, t, flits)
		t = start + n.hopLatency()
		hops++
		x = nx
	}
	for y != dy {
		dir := South
		ny := y + 1
		if dy < y {
			dir = North
			ny = y - 1
		}
		start := n.reserveLink(n.grid.At(x, y), dir, t, flits)
		t = start + n.hopLatency()
		hops++
		y = ny
	}
	return t, hops
}

// deferSend logs a cross-tile unicast as a barrier-deferred op: link
// reservations and the shared counters mutate only at the barrier, in
// exact merged serial order. The returned Delivery carries the exact
// hop count (a pure function of src/dst under XY routing — the only
// field the engines read); Latency is not computable before the link
// walk and reports zero.
func (n *Network) deferSend(k *sim.Kernel, src, dst topo.Tile, flits int, argFn func(any), arg any, now sim.Time) Delivery {
	if n.obs != nil {
		panic("mesh: observer attached during a parallel window")
	}
	lane := n.shardOf[src]
	var op *sendOp
	if pool := n.sendPool[lane]; len(pool) > 0 {
		op = pool[len(pool)-1]
		n.sendPool[lane] = pool[:len(pool)-1]
	} else {
		op = &sendOp{}
	}
	*op = sendOp{
		n: n, src: src, dst: dst, lane: int32(lane), flits: int32(flits),
		sendAt: now, tag: k.Tag(), argFn: argFn, arg: arg,
	}
	k.Defer(1, resolveSend, op)
	hops := n.grid.Hops(src, dst)
	return Delivery{Latency: 0, Hops: hops, Routers: hops + 1}
}

// resolveSend replays a deferred unicast at the window barrier: the
// link walk, the counters, and the delivery injection with the op's
// reserved final stamp.
func resolveSend(a any, seqBase uint64) {
	op := a.(*sendOp)
	n := op.n
	flits := int(op.flits)
	n.stats.Messages++
	t, hops := n.walkXY(op.src, op.dst, op.sendAt, flits)
	lat := t - op.sendAt + sim.Time(flits-1)
	n.stats.FlitLinkCrossing += uint64(hops * flits)
	n.stats.RouterTraversals += uint64(hops + 1)
	n.stats.TotalHops += uint64(hops)
	n.stats.TotalLatency += uint64(lat)
	n.maxLat = max(n.maxLat, lat)
	n.checkLookahead(op.src, op.dst, op.sendAt, op.sendAt+lat)
	n.deliverKernel(op.dst).InjectResolved(op.sendAt+lat, seqBase, op.tag, op.argFn, op.arg)
	lane := op.lane
	*op = sendOp{} // do not retain payloads in the pool
	n.sendPool[lane] = append(n.sendPool[lane], op)
}

// BroadcastDelivery describes the network usage of one broadcast.
type BroadcastDelivery struct {
	Links        int      // spanning-tree edges used
	Routers      int      // routers traversed
	Destinations int      // tiles reached (excluding source)
	MaxLatency   sim.Time // latency to the farthest tile
}

// Broadcast delivers a flits-flit message from src to every other tile
// using a dimension-order spanning tree: the message first spreads
// east/west along src's row, then each row tile spreads north/south
// along its column. Each tree edge carries the message exactly once,
// which is the point of hardware broadcast support versus 63 unicasts.
// deliver(args[dst]) runs once per destination tile dst at its arrival
// time; args is indexed by tile, and the source's entry is not read.
func (n *Network) Broadcast(src topo.Tile, flits int, deliver func(any), args []any) BroadcastDelivery {
	if !n.grid.Contains(src) {
		panic("mesh: Broadcast from invalid tile")
	}
	k := n.deliverKernel(src)
	now := k.Now()
	if k.Deferring() {
		return n.deferBroadcast(k, src, flits, deliver, args, now)
	}
	n.stats.Broadcasts++
	links := n.walkTree(src, flits, now)

	var maxLat sim.Time
	dests := 0
	// Deliveries are scheduled in tile order: same-cycle events run in
	// scheduling order, so iterating tiles in arbitrary order would
	// make runs nondeterministic.
	arrival := n.arrival
	for i := 0; i < n.grid.Tiles(); i++ {
		t := topo.Tile(i)
		if t == src {
			continue
		}
		at := arrival[t]
		dests++
		lat := at - now + sim.Time(flits-1)
		if lat > maxLat {
			maxLat = lat
		}
		n.deliverKernel(t).AtArg(at+sim.Time(flits-1), deliver, args[t])
	}
	routers := n.grid.Tiles() // every router forwards/ejects the message
	n.stats.FlitLinkCrossing += uint64(links * flits)
	n.stats.RouterTraversals += uint64(routers)
	if n.obs != nil {
		n.obs.BroadcastDone(src, flits, links, maxLat)
	}
	return BroadcastDelivery{
		Links:        links,
		Routers:      routers,
		Destinations: dests,
		MaxLatency:   maxLat,
	}
}

// walkTree reserves the dimension-order spanning tree for a broadcast
// issued from src at the given cycle, filling n.arrival with each
// tile's head arrival time. The spanning tree reaches every tile, and
// each tile's arrival is written before any dependent read, so the
// scratch slice needs no clearing between broadcasts. Returns the edge
// count (always Tiles-1 on a full mesh).
func (n *Network) walkTree(src topo.Tile, flits int, at sim.Time) int {
	sx, sy := n.grid.Coord(src)
	arrival := n.arrival
	arrival[src] = at

	links := 0
	crossLink := func(from topo.Tile, dir Direction, to topo.Tile) {
		start := n.reserveLink(from, dir, arrival[from], flits)
		arrival[to] = start + n.hopLatency()
		links++
	}
	// Phase 1: spread along the source row.
	for x := sx + 1; x < n.grid.Cols; x++ {
		crossLink(n.grid.At(x-1, sy), East, n.grid.At(x, sy))
	}
	for x := sx - 1; x >= 0; x-- {
		crossLink(n.grid.At(x+1, sy), West, n.grid.At(x, sy))
	}
	// Phase 2: from every tile of the source row, spread along columns.
	for x := 0; x < n.grid.Cols; x++ {
		for y := sy + 1; y < n.grid.Rows; y++ {
			crossLink(n.grid.At(x, y-1), South, n.grid.At(x, y))
		}
		for y := sy - 1; y >= 0; y-- {
			crossLink(n.grid.At(x, y+1), North, n.grid.At(x, y))
		}
	}
	return links
}

// deferBroadcast logs a broadcast as a single barrier-deferred op that
// reserves Tiles-1 final stamps, one per destination in tile order —
// the same order the in-window path schedules deliveries in. Tree
// shape facts are reported exactly; MaxLatency is contention-dependent
// and reports zero (no engine reads it).
func (n *Network) deferBroadcast(k *sim.Kernel, src topo.Tile, flits int, deliver func(any), args []any, now sim.Time) BroadcastDelivery {
	if n.obs != nil {
		panic("mesh: observer attached during a parallel window")
	}
	lane := n.shardOf[src]
	var op *bcastOp
	if pool := n.bcastPool[lane]; len(pool) > 0 {
		op = pool[len(pool)-1]
		n.bcastPool[lane] = pool[:len(pool)-1]
	} else {
		op = &bcastOp{}
	}
	*op = bcastOp{
		n: n, src: src, lane: int32(lane), flits: int32(flits),
		sendAt: now, tag: k.Tag(), deliver: deliver, args: append(op.args[:0], args...),
	}
	k.Defer(n.grid.Tiles()-1, resolveBroadcast, op)
	return BroadcastDelivery{
		Links:        n.grid.Tiles() - 1,
		Routers:      n.grid.Tiles(),
		Destinations: n.grid.Tiles() - 1,
	}
}

// resolveBroadcast replays a deferred broadcast at the window barrier:
// the spanning-tree walk, the counters, and one delivery injection per
// destination in tile order consuming seqBase..seqBase+Tiles-2.
func resolveBroadcast(a any, seqBase uint64) {
	op := a.(*bcastOp)
	n := op.n
	flits := int(op.flits)
	n.stats.Broadcasts++
	links := n.walkTree(op.src, flits, op.sendAt)
	arrival := n.arrival
	seq := seqBase
	for i := 0; i < n.grid.Tiles(); i++ {
		t := topo.Tile(i)
		if t == op.src {
			continue
		}
		at := arrival[t] + sim.Time(flits-1)
		n.checkLookahead(op.src, t, op.sendAt, at)
		n.deliverKernel(t).InjectResolved(at, seq, op.tag, op.deliver, op.args[t])
		seq++
	}
	n.stats.FlitLinkCrossing += uint64(links * flits)
	n.stats.RouterTraversals += uint64(n.grid.Tiles())
	lane := op.lane
	clear(op.args) // do not retain payloads in the pool
	*op = bcastOp{args: op.args[:0]}
	n.bcastPool[lane] = append(n.bcastPool[lane], op)
}

// UnicastBroadcast emulates a chip without hardware broadcast support:
// the message is sent as an independent unicast to every other tile.
// Used by the ablation benchmarks; deliver and args are Broadcast's.
func (n *Network) UnicastBroadcast(src topo.Tile, flits int, deliver func(any), args []any) BroadcastDelivery {
	var bd BroadcastDelivery
	for t := topo.Tile(0); int(t) < n.grid.Tiles(); t++ {
		if t == src {
			continue
		}
		d := n.SendArg(src, t, flits, deliver, args[t])
		bd.Links += d.Hops
		bd.Routers += d.Routers
		bd.Destinations++
		if d.Latency > bd.MaxLatency {
			bd.MaxLatency = d.Latency
		}
	}
	return bd
}

// MeanDistance returns the theoretical average Manhattan distance
// between two uniformly random distinct tiles of an n-tile square
// mesh, which the paper approximates as (2/3)*sqrt(ntc) per dimension
// pair (Section V-D uses 2/3*sqrt(ntc) links per leg... the exact
// value is computed here by enumeration).
func MeanDistance(grid topo.Grid) float64 {
	total, pairs := 0, 0
	for a := 0; a < grid.Tiles(); a++ {
		for b := 0; b < grid.Tiles(); b++ {
			if a == b {
				continue
			}
			total += grid.Hops(topo.Tile(a), topo.Tile(b))
			pairs++
		}
	}
	return float64(total) / float64(pairs)
}
