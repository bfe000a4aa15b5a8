package proto

import (
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// This file is the message chassis all four engines run on: one request
// type, one pooled message node and the handlers every protocol shares
// (the home request, the sharer ack, delivery with its ride-along MSHR
// counts, the memory fetch and flush legs, the retry, the eviction
// round, and an access's stall and hit retirement). Every pending event
// of an engine is one of these nodes with a handler bound once. The
// paper compares its protocols on identical tiles; only the coherence
// actions of Tables I–II differ, and those are what each engine adds.

// request is one coherence request on its way through the chip. The
// flat directory reads only addr, requestor, write, forwards and the
// ride-along counts; the rest serve the DiCo family.
type request struct {
	addr      cache.Addr
	requestor topo.Tile
	write     bool
	predicted bool
	bcast     bool // the data completes a DiCo-Arin broadcast write
	forwards  int
	// via is the tile that sent this request on toward a supplier it
	// believed in (-1 if none): DiCo-Providers repairs the stale provider
	// pointer of the owner or home that forwarded it; DiCo-Arin refreshes
	// the home's pointer to the L1 that bounced it.
	via topo.Tile

	// Ride-along MSHR bookkeeping: instead of the home, owner or sharers
	// synchronously poking the requestor's MSHR as the transaction hops
	// the chip, each leg accumulates its contribution here and the
	// delivery handler applies it on the requestor's own lane.
	links    int16 // mesh links traversed by the request legs
	acks     int16 // sharer (or broadcast) acks the write must collect; -1 on an ack
	provAcks int16 // provider acks, likewise (a provider ack adds its sharers' to acks)
	homeAck  int8  // pending Change_Owner acks / unblock gate
	clsPlus1 int8  // resolved MissClass + 1 (0 = not resolved yet)
}

// message is the pooled argument node of the non-capturing message
// path. A *message boxes into any without allocating, so every hop
// costs no heap traffic; a handler unpacks the fields its sender set,
// recycles the node (or sends it on), then acts.
type message struct {
	next         *message
	r            request
	tile         topo.Tile   // hop-specific second tile (owner/sharer/requestor/destination)
	state        cache.State // delivery fill state
	dirty        bool
	hasPro       bool      // propos is meaningful
	supplier     int16     // delivery prediction hint; an offer's owner hint (-1: none)
	kind         offerKind // what an offer chain hands over
	idx          int8      // Change_Provider: the new provider's area index (-1: No_Provider)
	stamp        sim.Time
	propos       [cache.MaxSimAreas]int8
	form         l2Form // ownership returning to the home L2 (sendHome)
	list, vector uint64 // an offer chain's candidates left and its acceptor's sharing code
	onDone       func() // a stalled or hit access's completion
}

// protocol is what an engine adds to the chassis: its issue path, its
// home request handler, its fill of a delivery at the requestor, the
// landing of memory data at the home, its L1 replacement, and the end
// of its eviction rounds. engineBase supplies defaults for
// invalidateSharer, unblockAfterWrite and dropForRound.
type protocol[P any] interface {
	Issue(tile topo.Tile, addr cache.Addr, write bool, onDone func()) bool
	atHome(r request)
	// fillL1 installs a delivery's block at its requestor.
	fillL1(ctx *Context, m *message)
	// memFill runs at the home when memory data for r arrives there, and
	// delivers it.
	memFill(ctx *Context, r request, home topo.Tile)
	// evictL1 runs the replacement protocol for a victim line that held
	// addr.
	evictL1(ctx *Context, tile topo.Tile, addr cache.Addr, victim P)
	// invalidateSharer drops the copy at tile and acks the requestor.
	invalidateSharer(ctx *Context, tile topo.Tile, addr cache.Addr, requestor topo.Tile)
	// unblockAfterWrite ends a broadcast write once its data and every
	// ack have arrived (DiCo-Arin's phase three).
	unblockAfterWrite(ctx *Context, r request)
	// dropForRound drops a holder's copy for an eviction round and
	// reports whether the ack carries its data; roundDone ends the round.
	dropForRound(ctx *Context, tile topo.Tile, addr cache.Addr) bool
	roundDone(ctx *Context, home topo.Tile, addr cache.Addr, rd round)
}

// round is the eviction round of a victim block, kept in the home's
// txRecord for it: an L2 or directory-entry eviction invalidates the
// block's copies as a write would, with the home as requestor (Table
// II). The block stays home-busy until roundDone.
type round struct {
	acks, provAcks int16 // sharer (or broadcast) and provider acks still due
	dirty          bool  // the victim's dirty bit
	bcast          bool  // DiCo-Arin: the copies were invalidated by broadcast
	resume         *message
}

// engineBase is the state and Engine plumbing all four protocols
// share: the chip context, the per-tile storage, the message pool and
// shared handlers, and the retire path. P is the engine's L1/L2 line
// payload.
type engineBase[P any] struct {
	ctx   *Context
	tiles []*tileState[P]
	name  string
	proto protocol[P]

	// Long-lived adapters for the kernel/mesh argument fast path:
	// protocol hops travel as (fn, *message) pairs instead of
	// per-message closures.
	atHomeFn  func(any)
	invalFn   func(any)
	ackFn     func(any)
	deliverFn func(any)
	memReqFn  func(any)
	memRespFn func(any)
	memFillFn func(any)
	// The eviction round's holder and home legs (openRound).
	roundInvFn func(any)
	roundAckFn func(any)
	flushFn    func(any) // dirty data landing at its memory controller
	sinkFn     func(any) // an ack with nothing to do but recycle at m.tile
	accessFn   func(any) // an access stalled at its L1 re-issues
	hitFn      func(any) // an L1 hit retires (Access)

	// free holds one message pool per executor lane (see Context.Lane):
	// senders take nodes from their lane's list and delivery handlers
	// recycle into theirs, so no list is ever touched by two lanes (an
	// engine-global pool would race under RunParallel). It is sized by
	// the tile count because a run never has more lanes than tiles.
	free []*message
}

// init builds the engine's tiles on ctx through newArray (a DiCo-family
// tile, dico, also gets its coherence caches) and binds the shared
// handlers to proto.
func (b *engineBase[P]) init(ctx *Context, name string, dico bool,
	newArray func(name string, sets, ways int) *cache.Array[P], proto protocol[P]) {
	ctx.bindPower()
	ctx.bindHome()
	b.ctx, b.name, b.proto = ctx, name, proto
	b.tiles = make([]*tileState[P], ctx.NumTiles())
	for i := range b.tiles {
		b.tiles[i] = newTileState(ctx.Cfg, ctx.BankShift(), dico, newArray)
	}
	b.free = make([]*message, ctx.NumTiles())
	b.bindHandlers()
}

// msg takes a node from the pool of the lane running the caller on
// ctx; at must be a tile of that lane (Context.own checks it).
func (b *engineBase[P]) msg(ctx *Context, at topo.Tile, r request) *message {
	ctx.own(at)
	lane := ctx.Lane(at)
	m := b.free[lane]
	if m != nil {
		b.free[lane] = m.next
	} else {
		m = &message{}
	}
	m.r = r
	return m
}

// putMsg recycles a node into the executing lane's pool.
func (b *engineBase[P]) putMsg(ctx *Context, at topo.Tile, m *message) {
	ctx.own(at)
	lane := ctx.Lane(at)
	m.next = b.free[lane]
	b.free[lane] = m
}

// recv unpacks a message delivered to the tile m.tile and recycles it.
func (b *engineBase[P]) recv(a any) (request, topo.Tile) {
	m := a.(*message)
	r, tile := m.r, m.tile
	b.putMsg(b.ctx.At(tile), tile, m)
	return r, tile
}

// bindHandlers builds the shared adapter funcs once; every per-message
// send reuses them with a pooled *message argument.
func (b *engineBase[P]) bindHandlers() {
	b.atHomeFn = func(a any) {
		m := a.(*message)
		r := m.r
		home := b.ctx.HomeOf(r.addr)
		b.putMsg(b.ctx.At(home), home, m)
		b.proto.atHome(r)
	}
	b.invalFn = func(a any) {
		r, sharer := b.recv(a)
		ctx := b.ctx.At(sharer)
		ctx.chargeVM(r.requestor)
		b.proto.invalidateSharer(ctx, sharer, r.addr, r.requestor)
	}
	b.ackFn = func(a any) {
		m := a.(*message)
		requestor, addr, acks, provAcks := m.tile, m.r.addr, m.r.acks, m.r.provAcks
		ctx := b.ctx.At(requestor)
		b.putMsg(ctx, requestor, m)
		ctx.chargeVM(requestor)
		if e, ok := b.tile(ctx, requestor).mshr.Lookup(addr); ok {
			e.SharerAcks += int(acks)
			e.ProviderAcks += int(provAcks)
			b.maybeComplete(ctx, requestor, addr)
		}
	}
	b.deliverFn = func(a any) {
		m := a.(*message)
		r := m.r
		ctx := b.ctx.At(r.requestor)
		ctx.chargeVM(r.requestor)
		// The fill may draw fresh nodes from the pool (self-sharer
		// invalidations), so m is recycled only after it returns.
		b.proto.fillL1(ctx, m)
		b.putMsg(ctx, r.requestor, m)
		if e, ok := b.tile(ctx, r.requestor).mshr.Lookup(r.addr); ok {
			e.DataReceived = true
			e.Links += int(r.links)
			e.SharerAcks += int(r.acks)
			e.ProviderAcks += int(r.provAcks)
			e.HomeAck += int(r.homeAck)
			if r.clsPlus1 != 0 {
				e.Tag = int(r.clsPlus1 - 1)
			}
			if r.bcast && e.SharerAcks == 0 {
				// Every broadcast ack beat the data here: run phase
				// three (the unblock) now.
				b.proto.unblockAfterWrite(ctx, r)
			}
		}
		b.maybeComplete(ctx, r.requestor, r.addr)
	}
	// Memory fetch pipeline: the pooled node rides request -> latency ->
	// data through the home, where the engine's memFill delivers it.
	b.memReqFn = func(a any) {
		m := a.(*message)
		ctx := b.ctx.At(b.ctx.Mem.For(m.r.addr))
		ctx.MemFetch(b.memRespFn, m)
	}
	b.memRespFn = func(a any) {
		m := a.(*message)
		mc := b.ctx.Mem.For(m.r.addr)
		ctx := b.ctx.At(mc)
		ctx.chargeVM(m.r.requestor)
		d := ctx.SendDataArg(mc, ctx.HomeOf(m.r.addr), b.memFillFn, m)
		m.r.links += int16(d.Hops)
	}
	b.memFillFn = func(a any) {
		m := a.(*message)
		r := m.r
		home := b.ctx.HomeOf(r.addr)
		ctx := b.ctx.At(home)
		b.putMsg(ctx, home, m)
		ctx.chargeVM(r.requestor)
		b.proto.memFill(ctx, r, home)
	}
	// The eviction round: a holder drops its copy and acks the home,
	// with the data when the engine says so; the home flushes that data,
	// counts the ack, and ends the round when none is due.
	b.roundInvFn = func(a any) {
		m := a.(*message)
		addr, holder := m.r.addr, m.tile
		ctx := b.ctx.At(holder)
		if m.dirty = b.proto.dropForRound(ctx, holder, addr); m.dirty {
			ctx.SendDataArg(holder, ctx.HomeOf(addr), b.roundAckFn, m)
		} else {
			ctx.SendCtlArg(holder, ctx.HomeOf(addr), b.roundAckFn, m)
		}
	}
	b.roundAckFn = func(a any) {
		m := a.(*message)
		addr, acks, provAcks, dirty := m.r.addr, m.r.acks, m.r.provAcks, m.dirty
		home := b.ctx.HomeOf(addr)
		ctx := b.ctx.At(home)
		b.putMsg(ctx, home, m)
		if dirty {
			b.flush(ctx, home, addr)
		}
		rd := &b.tile(ctx, home).tx.get(addr).round
		rd.acks += acks
		rd.provAcks += provAcks
		if rd.acks == 0 && rd.provAcks == 0 {
			b.proto.roundDone(ctx, home, addr, *rd)
		}
	}
	b.flushFn = func(a any) { _, mc := b.recv(a); b.ctx.At(mc).MemFlush() }
	b.sinkFn = func(a any) { b.recv(a) }
	b.accessFn = func(a any) { r, done := b.recvAccess(a); b.Access(r.requestor, r.addr, r.write, done) }
	b.hitFn = func(a any) { _, done := b.recvAccess(a); done() }
}

// recvAccess unpacks a message carrying an access of r.requestor and
// its completion, and recycles it.
func (b *engineBase[P]) recvAccess(a any) (request, func()) {
	m := a.(*message)
	r, done := m.r, m.onDone
	m.onDone = nil
	b.putMsg(b.ctx.At(r.requestor), r.requestor, m)
	return r, done
}

// Access implements Engine.
func (b *engineBase[P]) Access(tile topo.Tile, addr cache.Addr, write bool, onDone func()) {
	if b.proto.Issue(tile, addr, write, onDone) {
		ctx := b.ctx.At(tile)
		m := b.msg(ctx, tile, request{requestor: tile})
		m.onDone = onDone
		ctx.Kernel.AfterArg(ctx.Cfg.L1HitLatency, b.hitFn, m)
	}
}

// stallAccess queues an access at tile until the L1's transaction on
// addr completes; it then re-issues (accessFn).
func (b *engineBase[P]) stallAccess(ctx *Context, tile topo.Tile, addr cache.Addr, write bool, onDone func()) {
	m := b.msg(ctx, tile, request{addr: addr, requestor: tile, write: write})
	m.onDone = onDone
	b.tile(ctx, tile).stallL1(addr, b.accessFn, m)
}

// fetchFromMemory sends r from the home to the block's memory
// controller; the data comes back through the home (memFill).
func (b *engineBase[P]) fetchFromMemory(ctx *Context, r request, home topo.Tile) {
	m := b.msg(ctx, home, r)
	d := ctx.SendCtlArg(home, ctx.Mem.For(r.addr), b.memReqFn, m)
	m.r.links += int16(d.Hops)
}

// retry backs r off and restarts it at the home. The retry keeps the
// accumulated rides: those hops and ack expectations really happened.
func (b *engineBase[P]) retry(ctx *Context, home topo.Tile, r request) {
	ctx.spanRetry(r.requestor)
	r.forwards, r.via = 0, -1
	ctx.Kernel.AfterArg(retryBackoff, b.atHomeFn, b.msg(ctx, home, r))
}

// deliver sends the block to the requestor, carrying the miss's
// accumulated MSHR updates in r; deliverFn applies them there. supplier
// (when >= 0) is kept as the line's prediction hint; propos, when
// non-nil, rides to a DiCo-Providers owner.
func (b *engineBase[P]) deliver(ctx *Context, r request, from topo.Tile, state cache.State, dirty bool,
	supplier int16, propos *[cache.MaxSimAreas]int8) {
	m := b.msg(ctx, from, r)
	m.state, m.dirty, m.supplier, m.hasPro = state, dirty, supplier, propos != nil
	if propos != nil {
		m.propos = *propos
	}
	d := ctx.SendDataArg(from, r.requestor, b.deliverFn, m)
	m.r.links += int16(d.Hops)
}

// invalidateSharer drops the copy at tile, marking a miss in flight on
// it as racing the invalidation, and acks the requestor.
func (b *engineBase[P]) invalidateSharer(ctx *Context, tile topo.Tile, addr cache.Addr, requestor topo.Tile) {
	b.tile(ctx, tile).dropCopy(ctx, addr)
	m := b.msg(ctx, tile, request{addr: addr, acks: -1})
	m.tile = requestor
	ctx.SendCtlArg(tile, requestor, b.ackFn, m)
}

// unblockAfterWrite: only DiCo-Arin issues broadcast writes.
func (b *engineBase[P]) unblockAfterWrite(*Context, request) {}

// openRound starts the eviction round rd of victim addr at home, whose
// acks the caller's round invalidations then collect; a round with no
// ack due ends at once.
func (b *engineBase[P]) openRound(ctx *Context, home topo.Tile, addr cache.Addr, rd round) {
	if rd.acks == 0 && rd.provAcks == 0 {
		b.proto.roundDone(ctx, home, addr, rd)
		return
	}
	rec := b.tile(ctx, home).tx.ensure(addr)
	rec.flags |= txHomeBusy
	rec.round = rd
}

// roundInval sends holder the round invalidation of addr from the
// executing tile; the holder acks the block's home.
func (b *engineBase[P]) roundInval(ctx *Context, from, holder topo.Tile, addr cache.Addr) {
	m := b.msg(ctx, from, request{addr: addr, acks: -1})
	m.tile = holder
	ctx.SendCtlArg(from, holder, b.roundInvFn, m)
}

// dropForRound: a DiCo-family round ack never carries data.
func (b *engineBase[P]) dropForRound(ctx *Context, tile topo.Tile, addr cache.Addr) bool {
	b.tile(ctx, tile).dropCopy(ctx, addr)
	return false
}

// tile returns tile t's state to a handler running on ctx: the one way
// handlers reach per-tile state, so every access passes the ownership
// check (Context.own).
func (b *engineBase[P]) tile(ctx *Context, t topo.Tile) *tileState[P] {
	ctx.own(t)
	return b.tiles[t]
}

// Name implements Engine.
func (b *engineBase[P]) Name() string { return b.name }

// Stats implements Engine.
func (b *engineBase[P]) Stats() *stats.Set { return &b.ctx.Counters }

// MissProfile implements Engine.
func (b *engineBase[P]) MissProfile() MissProfile { return b.ctx.Profile }

// ForEachPending implements Engine.
func (b *engineBase[P]) ForEachPending(fn func(topo.Tile, *cache.MSHREntry)) {
	for i, t := range b.tiles {
		for _, e := range t.mshr.Entries() {
			fn(topo.Tile(i), e)
		}
	}
}

// hit accounts an L1 hit at lookup time; the caller of Issue retires it.
func (b *engineBase[P]) hit(ctx *Context, tile topo.Tile, addr cache.Addr, write bool) {
	if write {
		ctx.pw.L1DataWrite.Inc()
	} else {
		ctx.pw.L1DataRead.Inc()
	}
	ctx.Profile.Hits++
	ctx.observeRetired(tile, addr, write, true, false)
}

// maybeComplete retires the miss on addr at tile once all its
// conditions (data, acks, gates) are met.
func (b *engineBase[P]) maybeComplete(ctx *Context, tile topo.Tile, addr cache.Addr) {
	t := b.tile(ctx, tile)
	e, ok := t.mshr.Lookup(addr)
	if !ok || !e.Done() {
		return
	}
	dropped := e.InvalidatedWhilePending && !e.Write
	if dropped {
		// The fill raced an invalidation. Dropping the line is the safe
		// resolution, but it must go through the regular replacement
		// protocol so any ownership or providership the fill carried is
		// handed back properly.
		if line := t.l1.Peek(addr); line != nil {
			old, _ := t.l1.InvalidateLine(line)
			b.proto.evictL1(ctx, tile, addr, old)
		}
	}
	cls := MissClass(e.Tag)
	ctx.Profile.Count[cls]++
	ctx.Profile.Links[cls] += uint64(e.Links)
	ctx.spanEnd(tile, cls, dropped)
	done := e.OnComplete
	t.mshr.Release(addr)
	ctx.observeRetired(tile, addr, e.Write, false, e.InvalidatedWhilePending)
	t.wakeL1(ctx.Kernel, addr)
	if done != nil {
		done()
	}
}

// flush writes a dirty block from the executing tile back to its memory
// controller; the controller only draws the write latency.
func (b *engineBase[P]) flush(ctx *Context, from topo.Tile, addr cache.Addr) {
	m := b.msg(ctx, from, request{addr: addr})
	m.tile = ctx.Mem.For(addr)
	ctx.SendDataArg(from, m.tile, b.flushFn, m)
}

// forEachCopy visits every valid copy of addr using Peek (no LRU
// update); describe fills an L1 line's owner, exclusivity, dirty bit
// and state (for the home's L2 line only the last two are kept).
// Shared by the engines' ForEachCopy.
func (b *engineBase[P]) forEachCopy(addr cache.Addr, describe func(l *P) CopyInfo, fn func(CopyInfo)) {
	for i, t := range b.tiles {
		if l := t.l1.Peek(addr); l != nil {
			ci := describe(l)
			_, ci.Pending = t.mshr.Lookup(addr)
			ci.Tile = topo.Tile(i)
			fn(ci)
		}
	}
	home := b.ctx.HomeOf(addr)
	if l := b.tiles[home].l2.Peek(addr); l != nil {
		ci := describe(l)
		fn(CopyInfo{Tile: home, L2: true, Dirty: ci.Dirty, State: ci.State})
	}
}
