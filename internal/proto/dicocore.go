package proto

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// This file is the DiCo-family core: the mechanics DiCo, DiCo-Providers
// and DiCo-Arin share (Sections III-IV). Ownership and the block's
// coherence information live in the L1 owner; the L1C$ predicts the
// supplier so most misses resolve in two hops; the home's L2C$ keeps
// the precise owner for mispredictions; Change_Owner messages, ordered
// by stamps and gated by the home's ack, keep the L2C$ current; and an
// L2C$ eviction recalls the displaced block's ownership to the home L2.
// Each protocol is this core plus the guarded actions in dicoVariant.

// L1 states of the DiCo family. Owner states carry the sharing code of
// the owner's area (Sharers) and, in DiCo-Providers, one provider
// pointer per remote area (ProPos). Providers supply their own area;
// DiCo never enters dcProvider.
const (
	dcShared cache.State = 1 + iota
	dcProvider
	dcOwnerShared
	dcOwnerExclusive
	dcOwnerModified
)

// l2Inter is DiCo-Arin's inter-area home L2 form: one provider pointer
// per area and no sharer information (broadcast invalidation covers
// the copies). Every other home L2 line is the owner form, l2Present.
const l2Inter cache.State = l2Present + 1

func dcIsOwner(s cache.State) bool { return s >= dcOwnerShared }

// noProPos is the provider-pointer vector with no provider anywhere.
var noProPos = [cache.MaxSimAreas]int8{-1, -1, -1, -1, -1, -1, -1, -1}

// dicoVariant is the set of guarded actions in which a DiCo-family
// protocol differs from the core; DESIGN.md §3 maps each one to the
// rows of the paper's Tables I and II. homeSupply, applyL2, evictL2 and
// checkBlock have no shared default; the rest default to the
// dicoCore (or engineBase) methods of the same name. The variant is
// also the chassis' protocol, so DiCo-Arin's unblockAfterWrite reaches
// the shared delivery handler.
type dicoVariant interface {
	protocol[cache.Line]
	// remoteRead serves a read that reached the L1 owner from another area.
	remoteRead(ctx *Context, r request, owner topo.Tile, line *cache.Line)
	// providerRead serves a read that reached a provider of its own area.
	providerRead(ctx *Context, r request, provider topo.Tile, line *cache.Line)
	// forwardHome prepares a request the L1 at tile cannot serve for its
	// trip back to the home.
	forwardHome(ctx *Context, r request, tile topo.Tile) request
	// invalidateProviders invalidates every provider in propos outside
	// skipArea on behalf of requestor and returns the acks to expect.
	invalidateProviders(ctx *Context, from topo.Tile, addr cache.Addr,
		propos [cache.MaxSimAreas]int8, skipArea int, requestor topo.Tile) int
	// evictProvider runs the replacement of a provider copy (Table II).
	evictProvider(ctx *Context, tile topo.Tile, addr cache.Addr, victim cache.Line)
	// writebackForm is the home L2 form an evicted owner returns with
	// when no sharer of its area takes the ownership (Table II).
	writebackForm(ctx *Context, tile topo.Tile, addr cache.Addr,
		propos [cache.MaxSimAreas]int8, leftover uint64) l2Form
	// relinquishForm demotes a recalled L1 owner line and returns the
	// form the home L2 takes the ownership in (Section IV-A1).
	relinquishForm(ctx *Context, owner topo.Tile, line *cache.Line) l2Form
	// homeSupply serves a request at the home when the L2 holds the block.
	homeSupply(ctx *Context, r request, home topo.Tile, l2line *cache.Line)
	// applyL2 writes form f into the home L2 line taking the ownership.
	applyL2(line *cache.Line, dirty bool, f l2Form)
	// evictL2 invalidates every copy of an L2 victim in an eviction
	// round, whose roundDone resumes the insertion ins.
	evictL2(ctx *Context, home topo.Tile, addr cache.Addr, victim cache.Line, ins *message)
	// endOffer ends the offer chain m at tile: line is the accepting
	// sharer's copy, nil when nobody accepted (see offer).
	endOffer(ctx *Context, tile topo.Tile, line *cache.Line, m *message)
	// checkBlock panics on a cached block that breaks the variant's
	// invariants at quiescence (CheckInvariants).
	checkBlock(addr cache.Addr, bc *blockCopies, l2line *cache.Line)
}

// l2Form is the coherence information an ownership transfer installs
// with a block in its home L2.
type l2Form struct {
	state   cache.State // l2Present (owner form) or l2Inter
	areaTag int8        // area whose sharers are tracked (-1: none)
	sharers uint64      // area-local sharing code
	propos  [cache.MaxSimAreas]int8
}

// dicoCore is the shared engine; DiCo, Providers and Arin embed it and
// install themselves as its variant.
type dicoCore struct {
	engineBase[cache.Line]
	v     dicoVariant
	areas *topo.Areas // DiCo: one area spanning the chip

	// DiCo-family adapters for the kernel/mesh argument fast path (the
	// shared ones live in engineBase).
	atL1Fn   func(any)
	coFn     func(any)
	coAckFn  func(any)
	homeWbFn func(any)
	recallFn func(any) // an L2C$ recall at the owner m.tile (relinquish)
	offerFn  func(any) // an offer chain at its candidate m.tile (offerAt)
	xferFn   func(any) // an eviction transfer's Change_Owner at the home
	hintFn   func(any) // a supplier hint at m.tile from r.requestor
}

// init builds the core on ctx for the named protocol and binds it to
// its variant.
func (p *dicoCore) init(ctx *Context, name string, areas *topo.Areas, v dicoVariant) {
	if areas.Count > cache.MaxSimAreas {
		panic(fmt.Sprintf("%s: %d areas exceed the simulator's limit of %d", name, areas.Count, cache.MaxSimAreas))
	}
	p.engineBase.init(ctx, name, true, cache.New, v)
	p.v, p.areas = v, areas
	p.atL1Fn = func(a any) { p.atL1(p.recv(a)) }
	p.recallFn = func(a any) { p.relinquish(a.(*message)) }
	p.offerFn = func(a any) { p.offerAt(a.(*message)) }
	p.hintFn = func(a any) { p.hint(p.recv(a)) }
	// xferFn returns the node to the new owner as the gating ack.
	p.xferFn = func(a any) {
		m := a.(*message)
		home := p.ctx.HomeOf(m.r.addr)
		ctx := p.ctx.At(home)
		p.homeOwnerUpdate(ctx, home, m.r.addr, m.tile, m.stamp)
		ctx.SendCtlArg(home, m.tile, p.sinkFn, m)
	}
	// coFn lands a Change_Owner at the home; the node travels on to
	// carry the gating ack back to the new owner.
	p.coFn = func(a any) {
		m := a.(*message)
		addr, newOwner, stamp := m.r.addr, m.tile, m.stamp
		home := p.ctx.HomeOf(addr)
		ctx := p.ctx.At(home)
		ctx.chargeVM(newOwner)
		p.homeOwnerUpdate(ctx, home, addr, newOwner, stamp)
		ctx.SendCtlArg(home, newOwner, p.coAckFn, m)
	}
	// homeWbFn lands ownership and data returning home (sendHome).
	p.homeWbFn = func(a any) {
		m := a.(*message)
		home := p.ctx.HomeOf(m.r.addr)
		ctx := p.ctx.At(home)
		p.tile(ctx, home).stampIfNewer(ctx, m.r.addr, ctx.Kernel.Now())
		p.insertL2(ctx, home, m)
	}
	p.coAckFn = func(a any) {
		m := a.(*message)
		requestor, addr := m.tile, m.r.addr
		ctx := p.ctx.At(requestor)
		p.putMsg(ctx, requestor, m)
		ctx.chargeVM(requestor)
		if e, ok := p.tile(ctx, requestor).mshr.Lookup(addr); ok {
			e.HomeAck--
			p.maybeComplete(ctx, requestor, addr)
		}
	}
}

// memFill delivers memory data from the home, which keeps no L2 copy:
// the new L1 owner holds the block and its coherence information.
func (p *dicoCore) memFill(ctx *Context, r request, home topo.Tile) {
	state, dirty := dcOwnerExclusive, false
	if r.write {
		state, dirty = dcOwnerModified, true
	}
	p.deliver(ctx, r, home, state, dirty, -1, nil)
}

func (p *dicoCore) areaOf(t topo.Tile) int       { return p.areas.Of(t) }
func (p *dicoCore) areaIdx(t topo.Tile) int8     { return int8(p.areas.IndexInArea(t)) }
func (p *dicoCore) areaBit(t topo.Tile) uint64   { return 1 << uint(p.areas.IndexInArea(t)) }
func (p *dicoCore) tileAt(area, i int) topo.Tile { return p.areas.TilesIn(area)[i] }

// supplierKind classifies who supplied the data, for Figure 9b.
type supplierKind int

const (
	byOwner supplierKind = iota
	byProvider
	byHome
)

// classify returns the Figure 9b category of a miss at supply time;
// the supplier rides it to the requestor on the data message.
func classify(r *request, kind supplierKind) int8 {
	var c MissClass
	switch {
	case r.predicted && r.forwards == 0 && kind == byOwner:
		c = MissPredOwner
	case r.predicted && r.forwards == 0 && kind == byProvider:
		c = MissPredProvider
	case r.predicted:
		c = MissPredFail
	case kind == byOwner:
		c = MissUnpredOwner
	case kind == byProvider:
		c = MissUnpredProvider
	default:
		c = MissUnpredHome
	}
	return int8(c) + 1
}

// Issue implements Engine.
func (p *dicoCore) Issue(tile topo.Tile, addr cache.Addr, write bool, onDone func()) bool {
	ctx := p.ctx.At(tile)
	ctx.chargeVM(tile)
	t := p.tile(ctx, tile)
	if _, pending := t.mshr.Lookup(addr); pending || t.blocked(addr) {
		// A miss in flight, or a DiCo-Arin broadcast freezing the block:
		// wait for it to finish.
		p.stallAccess(ctx, tile, addr, write, onDone)
		return false
	}
	ctx.pw.L1TagRead.Inc()
	if line := t.l1.Lookup(addr); line != nil {
		if !write {
			p.hit(ctx, tile, addr, false)
			return true
		}
		switch line.State {
		case dcOwnerModified, dcOwnerExclusive:
			line.State = dcOwnerModified
			line.Dirty = true
			p.hit(ctx, tile, addr, true)
			return true
		case dcOwnerShared:
			// The owner invalidates its copies itself — the hallmark of
			// Direct Coherence.
			return p.ownerWriteHit(ctx, tile, addr, line, onDone)
		}
		// Shared or provider copy under a write: the miss path. (A
		// provider-requestor invalidates its own sharers once it receives
		// the ownership — Section IV-A's special case, handled at fill.)
	}
	e := t.mshr.Allocate(addr, write, uint64(ctx.Kernel.Now()))
	e.OnComplete = onDone
	ctx.spanBegin(tile, addr, write)
	r := request{addr: addr, requestor: tile, write: write, via: -1}
	// Predict the supplier via the L1C$ (Figure 5).
	ctx.pw.L1CAccess.Inc()
	if ptr, ok := t.l1c.Lookup(addr); ok && topo.Tile(ptr) != tile && !ctx.Cfg.NoPrediction {
		r.predicted = true
		e.Tag = int(MissPredFail) // upgraded when the predicted supplier serves it
		ctx.spanEvent("predict-supplier", tile, addr)
		pred := topo.Tile(ptr)
		m := p.msg(ctx, tile, r)
		m.tile = pred
		del := ctx.SendCtlArg(tile, pred, p.atL1Fn, m)
		e.Links += del.Hops
		return false
	}
	e.Tag = int(MissUnpredHome)
	del := ctx.SendCtlArg(tile, ctx.HomeOf(addr), p.atHomeFn, p.msg(ctx, tile, r))
	e.Links += del.Hops
	return false
}

// ownerWriteHit: the owner writes while its area has sharers (or remote
// areas have providers) and invalidates them all from here, with no
// home involvement. It reports a plain hit when no copy is left to
// invalidate; otherwise the write retires through onDone once every
// ack is in.
func (p *dicoCore) ownerWriteHit(ctx *Context, tile topo.Tile, addr cache.Addr, line *cache.Line, onDone func()) bool {
	line.State = dcOwnerModified
	line.Dirty = true
	remote := line.ProPos
	remote[p.areaOf(tile)] = -1
	if line.Sharers&^p.areaBit(tile) == 0 && remote == noProPos {
		p.hit(ctx, tile, addr, true)
		return true
	}
	e := p.tile(ctx, tile).mshr.Allocate(addr, true, uint64(ctx.Kernel.Now()))
	e.OnComplete = onDone
	e.Tag = int(MissPredOwner) // resolved locally; counted as a 0-link owner hit
	ctx.spanBegin(tile, addr, true)
	ctx.spanEvent("owner-write-inv", tile, addr)
	e.DataReceived = true
	shAcks, provAcks := p.invalidateCopies(ctx, tile, addr, line, tile)
	e.SharerAcks += shAcks
	e.ProviderAcks += provAcks
	line.Sharers = 0
	line.ProPos = noProPos
	ctx.pw.L1DataWrite.Inc()
	ctx.pw.L1TagWrite.Inc()
	return false
}

// invalidateCopies invalidates every copy an L1 owner's coherence
// information covers — its area's sharers and the remote-area
// providers, which invalidate their own sharers — on behalf of
// requestor, returning the sharer and
// provider acks the requestor must collect (the two-counter scheme of
// Section IV-A).
func (p *dicoCore) invalidateCopies(ctx *Context, owner topo.Tile, addr cache.Addr, line *cache.Line,
	requestor topo.Tile) (shAcks, provAcks int) {
	area := p.areaOf(owner)
	local := line.Sharers &^ p.areaBit(owner)
	if p.areaOf(requestor) == area {
		local &^= p.areaBit(requestor)
	}
	p.invalidateSharers(ctx, owner, addr, requestor, area, local)
	return popcount(local), p.v.invalidateProviders(ctx, owner, addr, line.ProPos, area, requestor)
}

// invalidateSharers sends an invalidation to every tile in the
// area-local vector sharers; each acks requestor.
func (p *dicoCore) invalidateSharers(ctx *Context, from topo.Tile, addr cache.Addr, requestor topo.Tile,
	area int, sharers uint64) {
	p.sendArea(ctx, from, area, sharers, p.invalFn, request{addr: addr, requestor: requestor})
}

// sendArea sends r from the executing tile to every tile m.tile of the
// area-local vector tiles of area, for handler fn there.
func (p *dicoCore) sendArea(ctx *Context, from topo.Tile, area int, tiles uint64, fn func(any), r request) {
	for v := tiles; v != 0; v &= v - 1 {
		m := p.msg(ctx, from, r)
		m.tile = p.tileAt(area, bits.TrailingZeros64(v))
		ctx.SendCtlArg(from, m.tile, fn, m)
	}
}

// invalidateSharer drops a sharer's copy, acks the requestor, and
// points the sharer's prediction at the new owner (Figure 5).
func (p *dicoCore) invalidateSharer(ctx *Context, tile topo.Tile, addr cache.Addr, requestor topo.Tile) {
	p.engineBase.invalidateSharer(ctx, tile, addr, requestor)
	p.tile(ctx, tile).l1c.Update(addr, int16(requestor))
	ctx.pw.L1CUpdate.Inc()
}

// atL1 dispatches a request arriving at an L1 (by prediction or
// forwarded) per the L1 rows of Table I.
func (p *dicoCore) atL1(r request, tile topo.Tile) {
	ctx := p.ctx.At(tile)
	ctx.chargeVM(r.requestor)
	t := p.tile(ctx, tile)
	if r.requestor == tile {
		// A stale provider pointer sent the request to its own
		// requestor, whose pending miss would stall it forever: back to
		// the home, repairing the pointer on the way.
		p.bounceHome(ctx, r, tile)
		return
	}
	if _, pending := t.mshr.Lookup(r.addr); pending || t.blocked(r.addr) {
		// Pooled-arg stall: a closure here would capture r and force it
		// to the heap on every atL1 call, not just the stalled ones.
		m := p.msg(ctx, tile, r)
		m.tile = tile
		t.stallL1(r.addr, p.atL1Fn, m)
		return
	}
	ctx.pw.L1TagRead.Inc()
	line := t.l1.Lookup(r.addr)
	switch {
	case line != nil && dcIsOwner(line.State) && r.write:
		p.ownerWriteSupply(ctx, r, tile, line)
	case line != nil && dcIsOwner(line.State) && p.areaOf(r.requestor) != p.areaOf(tile):
		p.v.remoteRead(ctx, r, tile, line)
	case line != nil && dcIsOwner(line.State):
		// Local read: the requestor becomes a sharer; a two-hop miss
		// when predicted.
		r.clsPlus1 = classify(&r, byOwner)
		line.Sharers |= p.areaBit(r.requestor)
		line.State = dcOwnerShared
		ctx.pw.L1TagWrite.Inc()
		ctx.pw.L1DataRead.Inc()
		p.deliver(ctx, r, tile, dcShared, false, int16(tile), nil)
	case line != nil && line.State == dcProvider && !r.write && p.areaOf(r.requestor) == p.areaOf(tile):
		p.v.providerRead(ctx, r, tile, line)
	default:
		// Not a supplier for this request (misprediction or stale
		// forward): back to the home.
		p.bounceHome(ctx, r, tile)
	}
}

// bounceHome sends a request the L1 at tile cannot serve back to the
// home.
func (p *dicoCore) bounceHome(ctx *Context, r request, tile topo.Tile) {
	r = p.v.forwardHome(ctx, r, tile)
	r.forwards++
	m := p.msg(ctx, tile, r)
	del := ctx.SendCtlArg(tile, ctx.HomeOf(r.addr), p.atHomeFn, m)
	m.r.links += int16(del.Hops)
}

// forwardL1 sends r on from one tile to the L1 at to.
func (p *dicoCore) forwardL1(ctx *Context, from, to topo.Tile, r request) {
	m := p.msg(ctx, from, r)
	m.tile = to
	del := ctx.SendCtlArg(from, to, p.atL1Fn, m)
	m.r.links += int16(del.Hops)
}

// ownerWriteSupply transfers ownership to a writer (Table I): the owner
// invalidates the copies itself, sends the data, and notifies the home
// with Change_Owner, whose ack gates the transfer.
func (p *dicoCore) ownerWriteSupply(ctx *Context, r request, owner topo.Tile, line *cache.Line) {
	r.clsPlus1 = classify(&r, byOwner)
	// The ack expectations ride to the requestor with the data; an ack
	// arriving first drives its MSHR counter transiently negative, which
	// Done() tolerates.
	shAcks, provAcks := p.invalidateCopies(ctx, owner, r.addr, line, r.requestor)
	r.acks += int16(shAcks)
	r.provAcks += int16(provAcks)
	r.homeAck++
	ctx.pw.L1DataRead.Inc()
	ctx.pw.L1TagWrite.Inc()
	t := p.tile(ctx, owner)
	t.l1.Invalidate(r.addr)
	// The former owner's prediction now points at the new owner.
	t.l1c.Update(r.addr, int16(r.requestor))
	ctx.pw.L1CUpdate.Inc()
	p.deliver(ctx, r, owner, dcOwnerModified, true, -1, nil)
	m := p.msg(ctx, owner, request{addr: r.addr})
	m.tile = r.requestor
	m.stamp = ctx.Kernel.Now()
	ctx.SendCtlArg(owner, ctx.HomeOf(r.addr), p.coFn, m) // Change_Owner (+ gating ack)
}

// atHome handles a request at the home bank: consult the L2C$ for the
// precise owner, else let the variant serve from the L2, else fetch
// memory (the requestor becomes the owner).
func (p *dicoCore) atHome(r request) {
	home := p.ctx.HomeOf(r.addr)
	ctx := p.ctx.At(home)
	ctx.chargeVM(r.requestor)
	th := p.tile(ctx, home)
	if th.homeBusy(r.addr) || th.recallMarked(r.addr) {
		th.stallHomeArg(r.addr, p.atHomeFn, p.msg(ctx, home, r))
		return
	}
	ctx.pw.L2TagRead.Inc()
	ctx.pw.L2CAccess.Inc()
	if ptr, ok := th.l2c.Lookup(r.addr); ok && th.l2.Peek(r.addr) == nil {
		owner := topo.Tile(ptr)
		if owner == r.requestor || r.forwards >= maxForwards {
			// Our own transfer is settling, or forwarding keeps bouncing.
			p.retry(ctx, home, r)
			return
		}
		r.forwards++
		ctx.spanEvent("home-forward-owner", home, r.addr)
		p.forwardL1(ctx, home, owner, r)
		return
	}
	if l2line := th.l2.Lookup(r.addr); l2line != nil {
		// A stale Change_Owner may have re-installed an L2C$ pointer
		// after the ownership returned home; the L2 line wins.
		if th.l2c.Invalidate(r.addr) {
			ctx.pw.L2CUpdate.Inc()
		}
		p.v.homeSupply(ctx, r, home, l2line)
		return
	}
	p.updateL2C(ctx, home, r.addr, r.requestor)
	p.fetchFromMemory(ctx, r, home)
}

// grantFromHome hands the home L2's ownership to the requestor: the L2
// copy leaves, the L2C$ points at the new owner, and the data carries
// state (and provider pointers, when propos is non-nil).
func (p *dicoCore) grantFromHome(ctx *Context, r request, home topo.Tile, state cache.State, dirty bool,
	propos *[cache.MaxSimAreas]int8) {
	ctx.pw.L2DataRead.Inc()
	p.tile(ctx, home).l2.Invalidate(r.addr)
	ctx.pw.L2TagWrite.Inc()
	p.updateL2C(ctx, home, r.addr, r.requestor)
	p.deliver(ctx, r, home, state, dirty, -1, propos)
}

// fillL1 installs the block at the requestor, running the Table II
// replacement for a displaced victim. A provider-requestor that just
// received ownership invalidates its own area's sharers now (Section
// IV-A's special case; only DiCo-Providers' providers track sharers).
func (p *dicoCore) fillL1(ctx *Context, m *message) {
	r, state, dirty := m.r, m.state, m.dirty
	tile := r.requestor
	ctx.spanEvent("fill", tile, r.addr)
	t := p.tile(ctx, tile)
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataWrite.Inc()
	var selfSharers uint64
	line, hit, valid := t.l1.Probe(r.addr)
	if hit {
		if r.write && line.State == dcProvider {
			selfSharers = line.Sharers &^ p.areaBit(tile)
		}
		line.Dirty = line.Dirty || dirty
		line.Sharers = 0
		line.Owner = -1
		line.ProPos = noProPos
		t.l1.Touch(line)
	} else {
		if valid {
			p.evictL1(ctx, tile, t.l1.AddrOf(line), *line)
		}
		t.l1.Fill(line, r.addr, state)
		line.Dirty = dirty
		// The block is cached: its dedicated L1C$ entry is redundant.
		t.l1c.Invalidate(r.addr)
	}
	line.State = state
	if m.supplier >= 0 {
		line.Owner = m.supplier
	}
	if m.hasPro {
		line.ProPos = m.propos
	}
	if selfSharers != 0 {
		if e, ok := t.mshr.Lookup(r.addr); ok {
			e.SharerAcks += popcount(selfSharers)
		}
		p.invalidateSharers(ctx, tile, r.addr, tile, p.areaOf(tile), selfSharers)
	}
}

// evictL1 is the Table II replacement: shared copies leave silently,
// keeping the supplier hint in the L1C$; providers are the variant's;
// owners offer the ownership (sharing code and provider pointers) to
// the sharers of their area, or write back to the home when none
// remains.
func (p *dicoCore) evictL1(ctx *Context, tile topo.Tile, addr cache.Addr, victim cache.Line) {
	ctx.spanEvent("evict", tile, addr)
	switch victim.State {
	case dcShared:
		p.keepHint(ctx, tile, addr, victim)
	case dcProvider:
		p.v.evictProvider(ctx, tile, addr, victim)
	default:
		if local := victim.Sharers &^ p.areaBit(tile); local != 0 {
			m := p.msg(ctx, tile, request{addr: addr})
			m.kind, m.list, m.vector, m.dirty, m.propos = offerOwnership, local, local, victim.Dirty, victim.ProPos
			p.offer(ctx, tile, m)
		} else {
			p.writebackToHome(ctx, tile, addr, victim.Dirty, victim.ProPos, 0)
		}
	}
}

// keepHint retains a departing copy's supplier hint in the L1C$.
func (p *dicoCore) keepHint(ctx *Context, tile topo.Tile, addr cache.Addr, victim cache.Line) {
	if victim.Owner >= 0 {
		p.tile(ctx, tile).l1c.Update(addr, victim.Owner)
		ctx.pw.L1CUpdate.Inc()
	}
}

// offerKind is what an offer chain hands to the sharer that accepts.
type offerKind uint8

const (
	offerOwnership    offerKind = iota // an evicted owner's (evictL1)
	offerProvidership                  // an evicted provider's (DiCo-Providers)
)

// offer sends the offer chain m on from the executing tile to the first
// candidate left in m.list, an area-local vector of from's area; the
// first that still holds a shared copy accepts with m.vector minus
// itself (offerAt). A candidate with a miss in flight is skipped —
// stalling behind the miss can deadlock, since the miss may itself be
// waiting for this block to settle — but stays in m.vector, so the
// acceptor's sharing code covers its fill (a superset is always safe);
// a candidate without a shared copy leaves the vector. When nobody
// accepts, the chain ends at the last tile probed: whatever the offer
// carries rides the chain, so every send's source is the tile whose
// lane is executing.
func (p *dicoCore) offer(ctx *Context, from topo.Tile, m *message) {
	if m.list == 0 {
		p.v.endOffer(ctx, from, nil, m)
		return
	}
	m.tile = p.tileAt(p.areaOf(from), bits.TrailingZeros64(m.list))
	ctx.SendCtlArg(from, m.tile, p.offerFn, m)
}

// offerAt runs the offer chain m at its candidate m.tile.
func (p *dicoCore) offerAt(m *message) {
	target, addr := m.tile, m.r.addr
	ctx := p.ctx.At(target)
	t := p.tile(ctx, target)
	self := p.areaBit(target)
	m.list &^= self
	if _, pending := t.mshr.Lookup(addr); !pending {
		ctx.pw.L1TagRead.Inc()
		m.vector &^= self
		if line := t.l1.Peek(addr); line != nil && line.State == dcShared {
			p.v.endOffer(ctx, target, line, m)
			return
		}
	}
	p.offer(ctx, target, m)
}

// endOffer ends an ownership offer: the acceptor sends Change_Owner to
// the home (xferFn) and hints the others. If nobody accepts, the data
// falls back to the home from the chain's end.
func (p *dicoCore) endOffer(ctx *Context, tile topo.Tile, line *cache.Line, m *message) {
	addr, others := m.r.addr, m.vector
	if line == nil {
		p.writebackToHome(ctx, tile, addr, m.dirty, m.propos, others)
		p.putMsg(ctx, tile, m)
		return
	}
	ctx.spanEvent("transfer-accepted", tile, addr)
	line.State = dcOwnerShared
	line.Dirty = m.dirty
	line.Sharers = others
	line.ProPos = m.propos
	line.Owner = -1
	ctx.pw.L1TagWrite.Inc()
	m.tile, m.stamp = tile, ctx.Kernel.Now()
	ctx.SendCtlArg(tile, ctx.HomeOf(addr), p.xferFn, m) // Change_Owner
	p.hintSharers(ctx, tile, addr, p.areaOf(tile), others)
}

// hintSharers tells every tile of the area-local vector sharers that
// supplier now supplies addr (hint).
func (p *dicoCore) hintSharers(ctx *Context, supplier topo.Tile, addr cache.Addr, area int, sharers uint64) {
	p.sendArea(ctx, supplier, area, sharers, p.hintFn, request{addr: addr, requestor: supplier})
}

// hint points a sharer's prediction at the supplier r.requestor
// (Figure 5).
func (p *dicoCore) hint(r request, sharer topo.Tile) {
	ctx := p.ctx.At(sharer)
	st := p.tile(ctx, sharer)
	if l := st.l1.Peek(r.addr); l != nil && l.State == dcShared {
		l.Owner = int16(r.requestor)
	} else {
		st.l1c.Update(r.addr, int16(r.requestor))
		ctx.pw.L1CUpdate.Inc()
	}
}

// writebackToHome returns ownership (and the data) from the executing
// tile to the home L2; leftover are sharers of the tile's area that may
// still hold (or soon receive) a copy.
func (p *dicoCore) writebackToHome(ctx *Context, tile topo.Tile, addr cache.Addr, dirty bool,
	propos [cache.MaxSimAreas]int8, leftover uint64) {
	f := p.v.writebackForm(ctx, tile, addr, propos, leftover)
	ctx.pw.L1DataRead.Inc()
	p.sendHome(ctx, tile, addr, dirty, f)
}

// writebackForm is the DiCo and DiCo-Arin form: the home L2 becomes the
// owner and tracks the leftover sharers of the evicted owner's area.
func (p *dicoCore) writebackForm(_ *Context, tile topo.Tile, _ cache.Addr, _ [cache.MaxSimAreas]int8,
	leftover uint64) l2Form {
	f := l2Form{state: l2Present, areaTag: -1, sharers: leftover, propos: noProPos}
	if leftover != 0 {
		f.areaTag = int8(p.areaOf(tile))
	}
	return f
}

// sendHome ships ownership and data of addr from the executing tile to
// the home, which stamps the return — so a Change_Owner sent earlier
// but arriving later cannot resurrect a stale pointer — and lands it:
// the L2 installs the ownership in form f, then the home settles.
func (p *dicoCore) sendHome(ctx *Context, from topo.Tile, addr cache.Addr, dirty bool, f l2Form) {
	m := p.msg(ctx, from, request{addr: addr})
	m.dirty, m.form = dirty, f
	ctx.SendDataArg(from, ctx.HomeOf(addr), p.homeWbFn, m)
}

// settleHome retires the home's pointer to the old L1 owner, clears any
// recall mark and wakes the requests stalled on addr.
func (p *dicoCore) settleHome(ctx *Context, home topo.Tile, addr cache.Addr) {
	th := p.tile(ctx, home)
	if th.l2c.Invalidate(addr) {
		ctx.pw.L2CUpdate.Inc()
	}
	th.clearRecall(addr)
	th.wakeHome(ctx.Kernel, addr)
}

// homeOwnerUpdate installs a new owner pointer in the home's L2C$,
// guarded against reordered Change_Owner messages.
func (p *dicoCore) homeOwnerUpdate(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile, stamp sim.Time) {
	ctx.spanEvent("home-update", home, addr)
	th := p.tile(ctx, home)
	if !th.stampIfNewer(ctx, addr, stamp) {
		return // a newer transfer already registered
	}
	p.updateL2C(ctx, home, addr, owner)
	th.clearRecall(addr)
	th.wakeHome(ctx.Kernel, addr)
}

// updateL2C writes an owner pointer, running the L2C$ replacement
// protocol when the insertion displaces a victim: the displaced entry
// was the home's only pointer to its owner, so that ownership is
// recalled to the home L2.
func (p *dicoCore) updateL2C(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile) {
	evicted, evictedPtr, displaced := p.tile(ctx, home).l2c.Update(addr, int16(owner))
	ctx.pw.L2CUpdate.Inc()
	if displaced {
		p.recallOwnership(ctx, home, evicted, topo.Tile(evictedPtr))
	}
}

// recallOwnership implements the L2C$ information replacement of
// Section IV-A1: the home asks the owner to return the coherence
// information and the data. The victim's pointer is read before the
// eviction overwrites it — as the hardware does — so the recall travels
// straight to the owner; no chip-wide L1 scan. A stale pointer is
// resolved at the owner's tile: a pending miss stalls the recall
// behind it, a non-owner drops it and the in-flight Change_Owner clears
// the mark when it lands.
func (p *dicoCore) recallOwnership(ctx *Context, home topo.Tile, addr cache.Addr, owner topo.Tile) {
	ctx.spanEvent("recall", home, addr)
	p.tile(ctx, home).markRecall(addr)
	m := p.msg(ctx, home, request{addr: addr})
	m.tile = owner
	ctx.SendCtlArg(home, owner, p.recallFn, m)
}

// relinquish moves a recalled ownership from the L1 at m.tile back to
// the home L2.
func (p *dicoCore) relinquish(m *message) {
	owner, addr := m.tile, m.r.addr
	ctx := p.ctx.At(owner)
	t := p.tile(ctx, owner)
	if _, pending := t.mshr.Lookup(addr); pending {
		// The recalled grant has not filled yet: wait for it.
		t.stallL1(addr, p.recallFn, m)
		return
	}
	p.putMsg(ctx, owner, m)
	ctx.pw.L1TagRead.Inc()
	line := t.l1.Peek(addr)
	if line == nil || !dcIsOwner(line.State) {
		// Stale recall: ownership moved on. The Change_Owner that moved
		// it clears the recall mark at the home.
		return
	}
	ctx.spanEvent("relinquish", owner, addr)
	dirty := line.Dirty
	f := p.v.relinquishForm(ctx, owner, line)
	line.Dirty = false
	line.Owner = -1
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	p.sendHome(ctx, owner, addr, dirty, f)
}

// relinquishForm is the DiCo and DiCo-Arin recall: the former owner
// stays on as a sharer, and the home L2 takes the ownership with the
// owner's area sharing code.
func (p *dicoCore) relinquishForm(_ *Context, owner topo.Tile, line *cache.Line) l2Form {
	f := l2Form{state: l2Present, areaTag: int8(p.areaOf(owner)), sharers: line.Sharers | p.areaBit(owner), propos: noProPos}
	line.State = dcShared
	line.Sharers = 0
	return f
}

// insertL2 installs the block a returning ownership ins carries
// (r.addr, dirty, form) in its home L2, first evicting an L2 victim
// (which invalidates the victim's copies and resumes here), then
// settles the home and recycles ins.
func (p *dicoCore) insertL2(ctx *Context, home topo.Tile, ins *message) {
	addr := ins.r.addr
	ctx.spanEvent("l2-insert", home, addr)
	th := p.tile(ctx, home)
	line, hit, valid := th.l2.Probe(addr)
	switch {
	case hit:
		ctx.pw.L2TagWrite.Inc()
		ctx.pw.L2DataWrite.Inc()
		th.l2.Touch(line)
		p.v.applyL2(line, ins.dirty, ins.form)
	case valid:
		// Remove the victim from the array immediately (so no concurrent
		// insertion picks the same way), invalidate its copies, then
		// retry the insertion.
		snapshot, victimAddr := th.l2.InvalidateLine(line)
		ctx.pw.L2TagWrite.Inc()
		p.v.evictL2(ctx, home, victimAddr, snapshot, ins)
		return
	default:
		ctx.pw.L2TagWrite.Inc()
		ctx.pw.L2DataWrite.Inc()
		th.l2.Fill(line, addr, ins.form.state)
		p.v.applyL2(line, ins.dirty, ins.form)
	}
	p.putMsg(ctx, home, ins)
	p.settleHome(ctx, home, addr)
}

// roundDone ends the eviction of L2 victim addr once its copies are
// gone: dirty data goes to memory, the home releases the block, and the
// insertion that displaced it resumes.
func (p *dicoCore) roundDone(ctx *Context, home topo.Tile, addr cache.Addr, rd round) {
	if rd.dirty {
		p.flush(ctx, home, addr)
	}
	th := p.tile(ctx, home)
	th.clearHomeBusy(addr)
	th.wakeHome(ctx.Kernel, addr)
	p.insertL2(ctx, home, rd.resume)
}

// evictL2Sharers evicts an owner-form L2 victim whose copies are the
// area-local sharers of area in an eviction round.
func (p *dicoCore) evictL2Sharers(ctx *Context, home topo.Tile, addr cache.Addr, victim cache.Line, area int,
	sharers uint64, ins *message) {
	ctx.spanEvent("l2-evict", home, addr)
	p.openRound(ctx, home, addr, round{acks: int16(popcount(sharers)), dirty: victim.Dirty, resume: ins})
	p.roundInvalArea(ctx, home, addr, area, sharers)
}

// roundInvalArea sends the round invalidation of addr from the
// executing tile to every tile of the area-local vector sharers.
func (p *dicoCore) roundInvalArea(ctx *Context, from topo.Tile, addr cache.Addr, area int, sharers uint64) {
	p.sendArea(ctx, from, area, sharers, p.roundInvFn, request{addr: addr, acks: -1})
}

// The remaining defaults are the hooks DiCo never reaches or shares
// with one of the other variants.

// remoteRead has no DiCo behaviour: DiCo's single area makes every
// requestor local.
func (p *dicoCore) remoteRead(*Context, request, topo.Tile, *cache.Line) {
	panic(p.name + ": read from a remote area")
}

// providerRead has no DiCo behaviour: no DiCo copy is a provider.
func (p *dicoCore) providerRead(*Context, request, topo.Tile, *cache.Line) {
	panic(p.name + ": read served by a provider")
}

// forwardHome records the bouncing L1 (DiCo-Arin's stale-provider
// fixup reads it at the home; DiCo ignores it).
func (p *dicoCore) forwardHome(_ *Context, r request, tile topo.Tile) request {
	r.via = tile
	return r
}

// invalidateProviders: only DiCo-Providers keeps provider pointers.
func (p *dicoCore) invalidateProviders(*Context, topo.Tile, cache.Addr, [cache.MaxSimAreas]int8, int, topo.Tile) int {
	return 0
}

// evictProvider lets a DiCo-Arin provider leave silently like a sharer:
// the home's pointer to it is refreshed lazily by the forwarder fixup.
func (p *dicoCore) evictProvider(ctx *Context, tile topo.Tile, addr cache.Addr, victim cache.Line) {
	p.keepHint(ctx, tile, addr, victim)
}

// ForEachCopy implements Engine.
func (p *dicoCore) ForEachCopy(addr cache.Addr, fn func(CopyInfo)) {
	p.forEachCopy(addr, describeLine, fn)
}

func describeLine(l *cache.Line) CopyInfo {
	return CopyInfo{Owner: dcIsOwner(l.State), Exclusive: l.State >= dcOwnerExclusive, Dirty: l.Dirty, State: l.State}
}

// blockCopies is one block's L1 copies, for the invariant checkers.
type blockCopies struct {
	owner   topo.Tile // -1 when no L1 owns the block
	holders map[topo.Tile]cache.State
}

// CheckInvariants implements Engine; call at quiescence. It runs the
// family-wide invariants — at most one owner chip-wide, an exclusive
// owner holds the only copy, and the home L2C$ points at the actual L1
// owner — then the variant's checkBlock for every cached block in
// address order.
func (p *dicoCore) CheckInvariants() {
	blocks := make(map[cache.Addr]*blockCopies)
	for i, t := range p.tiles {
		tile := topo.Tile(i)
		t.l1.ForEachValid(func(a cache.Addr, l *cache.Line) {
			bc := blocks[a]
			if bc == nil {
				bc = &blockCopies{owner: -1, holders: map[topo.Tile]cache.State{}}
				blocks[a] = bc
			}
			bc.holders[tile] = l.State
			if dcIsOwner(l.State) {
				if bc.owner >= 0 {
					panic(fmt.Sprintf("%s: block %#x has two owners (%d, %d)", p.name, a, bc.owner, tile))
				}
				bc.owner = tile
			}
		})
	}
	addrs := make([]cache.Addr, 0, len(blocks))
	for a := range blocks {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, addr := range addrs {
		bc := blocks[addr]
		th := p.tiles[p.ctx.HomeOf(addr)]
		if bc.owner >= 0 {
			if s := bc.holders[bc.owner]; s >= dcOwnerExclusive && len(bc.holders) > 1 {
				panic(fmt.Sprintf("%s: block %#x exclusive at %d with %d holders", p.name, addr, bc.owner, len(bc.holders)))
			}
			if ptr, ok := th.l2c.Peek(addr); ok && topo.Tile(ptr) != bc.owner {
				panic(fmt.Sprintf("%s: block %#x L2C$ points to %d, owner is %d", p.name, addr, ptr, bc.owner))
			}
		}
		p.v.checkBlock(addr, bc, th.l2.Peek(addr))
	}
}
