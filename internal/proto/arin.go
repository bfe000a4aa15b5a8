package proto

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/topo"
)

// Arin implements DiCo-Arin (Sections III-B and IV-B): DiCo behaviour
// while a block's copies stay inside one area; the first remote-area
// read dissolves ownership, parks the block in the home L2 in the
// inter-area form (l2Inter), and turns every copy holder into a
// provider. Writes to inter-area blocks use the paper's three-phase
// broadcast invalidation (block, ack, unblock). The home L2 owner form
// tracks the sharers of at most one area (AreaTag).
type Arin struct {
	dicoCore

	// The broadcasts' legs at their destination m.tile: a write's
	// invalidation (phase one) and its ack at the requestor (phase two),
	// an inter-area L2 eviction's invalidation, and the unblock.
	bcastInvFn, bcastAckFn, bcastRoundFn, unblockFn func(any)
}

// NewArin builds the DiCo-Arin engine on ctx.
func NewArin(ctx *Context) *Arin {
	p := &Arin{}
	p.init(ctx, "arin", ctx.Areas, p)
	p.bcastInvFn = func(a any) { p.invalidateBroadcast(a.(*message)) }
	p.bcastAckFn = func(a any) {
		r, requestor := p.recv(a)
		ctx := p.ctx.At(requestor)
		if e, ok := p.tile(ctx, requestor).mshr.Lookup(r.addr); ok {
			e.SharerAcks--
			if e.SharerAcks == 0 && e.DataReceived {
				p.unblockAfterWrite(ctx, r)
			}
		}
	}
	p.bcastRoundFn = func(a any) {
		m := a.(*message)
		p.tile(p.ctx.At(m.tile), m.tile).setBlocked(m.r.addr)
		p.roundInvFn(m)
	}
	p.unblockFn = func(a any) { p.release(p.recv(a)) }
	return p
}

// remoteRead is the heart of DiCo-Arin (Section III-B): a read from a
// remote area reaches the L1 owner; the ownership disappears, the
// former owner becomes a provider, the home L2 receives the data (and
// becomes a provider), and the requestor becomes a provider.
func (p *Arin) remoteRead(ctx *Context, r request, owner topo.Tile, line *cache.Line) {
	ctx.spanEvent("dissolve", owner, r.addr)
	r.clsPlus1 = classify(&r, byOwner)
	dirty := line.Dirty
	line.State = dcProvider
	line.Dirty = false
	line.Sharers = 0 // former sharers survive silently; broadcast covers them
	line.Owner = -1
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	p.deliver(ctx, r, owner, dcProvider, false, int16(owner), nil)
	f := l2Form{state: l2Inter, areaTag: -1, propos: noProPos}
	f.propos[p.areaOf(owner)] = p.areaIdx(owner)
	f.propos[p.areaOf(r.requestor)] = p.areaIdx(r.requestor)
	p.sendHome(ctx, owner, r.addr, dirty, f)
}

// providerRead: a provider supplies inside its area; the new copy is a
// provider too (Section IV-B's optimization).
func (p *Arin) providerRead(ctx *Context, r request, provider topo.Tile, _ *cache.Line) {
	r.clsPlus1 = classify(&r, byProvider)
	ctx.pw.L1DataRead.Inc()
	p.deliver(ctx, r, provider, dcProvider, false, int16(provider), nil)
}

// homeSupply dispatches on the home L2 line's form.
func (p *Arin) homeSupply(ctx *Context, r request, home topo.Tile, l2line *cache.Line) {
	if l2line.State == l2Inter {
		p.homeInter(ctx, r, home, l2line)
		return
	}
	p.homeOwned(ctx, r, home, l2line)
}

// homeInter serves a request for a block shared between areas: the
// block is always present in the home L2 (the design decision that
// removes DiCo-Providers' 5-hop path).
func (p *Arin) homeInter(ctx *Context, r request, home topo.Tile, l2line *cache.Line) {
	if r.write {
		p.broadcastInvalidation(ctx, r, home)
		return
	}
	reqArea := p.areaOf(r.requestor)
	// Stale-provider fixup: the L1 that bounced the request is no longer
	// a provider.
	if r.via >= 0 {
		fwdArea := p.areaOf(r.via)
		if l2line.ProPos[fwdArea] == p.areaIdx(r.via) {
			if fwdArea == reqArea {
				l2line.ProPos[fwdArea] = p.areaIdx(r.requestor)
			} else {
				l2line.ProPos[fwdArea] = -1
			}
			ctx.pw.L2TagWrite.Inc()
		}
	}
	r.clsPlus1 = classify(&r, byHome)
	ctx.pw.L2DataRead.Inc()
	// The reply carries the identity of the area's provider so the
	// requestor's L1C$ points at it for the next miss.
	hint := int16(-1)
	if l2line.ProPos[reqArea] >= 0 {
		if prov := p.tileAt(reqArea, int(l2line.ProPos[reqArea])); prov != r.requestor {
			hint = int16(prov)
		}
	} else {
		l2line.ProPos[reqArea] = p.areaIdx(r.requestor)
		ctx.pw.L2TagWrite.Inc()
	}
	p.tile(ctx, home).l2.Touch(l2line)
	p.deliver(ctx, r, home, dcProvider, false, hint, nil)
}

// homeOwned serves a request when the home L2 owns the block with (at
// most) one area's sharers tracked precisely.
func (p *Arin) homeOwned(ctx *Context, r request, home topo.Tile, l2line *cache.Line) {
	r.clsPlus1 = classify(&r, byHome)
	reqArea := p.areaOf(r.requestor)
	area := int(l2line.AreaTag)
	switch {
	case r.write:
		// Invalidate the tracked sharers, transfer ownership to the
		// writer; the ack expectations ride on the data message.
		var sharers uint64
		if area >= 0 {
			sharers = l2line.Sharers
			if area == reqArea {
				sharers &^= p.areaBit(r.requestor)
			}
		}
		r.acks += int16(popcount(sharers))
		p.invalidateSharers(ctx, home, r.addr, r.requestor, area, sharers)
		p.grantFromHome(ctx, r, home, dcOwnerModified, true, nil)
	case area == reqArea || area < 0:
		l2line.AreaTag = int8(reqArea)
		l2line.Sharers |= p.areaBit(r.requestor)
		ctx.pw.L2DataRead.Inc()
		ctx.pw.L2TagWrite.Inc()
		p.deliver(ctx, r, home, dcShared, false, -1, nil)
	default:
		// A second area starts reading: the block becomes shared between
		// areas. The previously tracked sharers silently become
		// broadcast-covered copies.
		l2line.State = l2Inter
		l2line.ProPos = noProPos
		l2line.ProPos[reqArea] = p.areaIdx(r.requestor)
		l2line.Sharers = 0
		l2line.AreaTag = -1
		ctx.pw.L2DataRead.Inc()
		ctx.pw.L2TagWrite.Inc()
		p.deliver(ctx, r, home, dcProvider, false, -1, nil)
	}
}

// broadcast sends r from src to every other tile dst, as a pooled
// message (m.tile = dst) for handler fn there, by hardware broadcast or
// — in the ablation — by unicasts.
func (p *Arin) broadcast(ctx *Context, src topo.Tile, fn func(any), r request) {
	if ctx.bcast == nil {
		ctx.bcast = make([]any, ctx.NumTiles())
	}
	for t := range ctx.bcast {
		if dst := topo.Tile(t); dst != src {
			m := p.msg(ctx, src, r)
			m.tile = dst
			ctx.bcast[t] = m
		}
	}
	flits := ctx.Net.Config().ControlFlits
	if ctx.Cfg.BroadcastUnicast {
		ctx.Net.UnicastBroadcast(src, flits, fn, ctx.bcast)
	} else {
		ctx.Net.Broadcast(src, flits, fn, ctx.bcast)
	}
}

// broadcastInvalidation is the three-phase mechanism of Section IV-B1
// for a write to an inter-area block: (1) the home broadcasts the
// invalidation and every L1 blocks the address, (2) every L1 acks the
// requestor, (3) the requestor broadcasts the unblock.
func (p *Arin) broadcastInvalidation(ctx *Context, r request, home topo.Tile) {
	th := p.tile(ctx, home)
	r.clsPlus1 = classify(&r, byHome)
	th.setHomeBusy(r.addr)
	th.l2.Invalidate(r.addr)
	ctx.pw.L2TagWrite.Inc()
	ctx.pw.L2DataRead.Inc()
	p.updateL2C(ctx, home, r.addr, r.requestor)

	expected := ctx.NumTiles() - 1 // broadcast destinations
	if r.requestor != home {
		expected-- // the requestor does not ack itself
	}
	// The ack expectations and the unblock gate ride to the requestor
	// with the data; early acks drive the counter transiently negative.
	r.acks += int16(expected)
	r.homeAck++ // released when the unblock phase finishes
	r.bcast = true
	// The mesh broadcast excludes the source tile: invalidate the home
	// tile's own L1 copy inline (it is not among the counted acks).
	ctx.pw.L1TagRead.Inc()
	if _, ok := th.l1.Invalidate(r.addr); ok {
		ctx.pw.L1TagWrite.Inc()
	}
	if e, ok := th.mshr.Lookup(r.addr); ok && home != r.requestor {
		e.InvalidatedWhilePending = true
	}
	ctx.spanEvent("bcast-inv", home, r.addr)
	p.broadcast(ctx, home, p.bcastInvFn, request{addr: r.addr, requestor: r.requestor})
	p.deliver(ctx, r, home, dcOwnerModified, true, -1, nil)
}

// invalidateBroadcast is phase one at the destination m.tile: the copy
// goes, the prediction points at the writer, and every tile but the
// writer blocks the address and acks the writer with m.
func (p *Arin) invalidateBroadcast(m *message) {
	dst, r := m.tile, m.r
	ctx := p.ctx.At(dst)
	t := p.tile(ctx, dst)
	ctx.chargeVM(r.requestor)
	ctx.pw.L1TagRead.Inc()
	if _, ok := t.l1.Invalidate(r.addr); ok {
		ctx.pw.L1TagWrite.Inc()
	}
	if e, ok := t.mshr.Lookup(r.addr); ok && dst != r.requestor {
		e.InvalidatedWhilePending = true
	}
	t.l1c.Update(r.addr, int16(r.requestor))
	ctx.pw.L1CUpdate.Inc()
	if dst == r.requestor {
		p.putMsg(ctx, dst, m)
		return
	}
	t.setBlocked(r.addr)
	m.tile = r.requestor
	ctx.SendCtlArg(dst, r.requestor, p.bcastAckFn, m)
}

// unblockAfterWrite is phase three: the requestor broadcasts the
// unblock, every L1 resumes, and the home releases the block. It runs
// on the requestor's lane (from the delivery or the last ack).
func (p *Arin) unblockAfterWrite(ctx *Context, r request) {
	home := ctx.HomeOf(r.addr)
	e, ok := p.tile(ctx, r.requestor).mshr.Lookup(r.addr)
	if !ok || e.HomeAck <= 0 {
		return // already unblocked
	}
	ctx.spanEvent("bcast-unblock", r.requestor, r.addr)
	p.broadcast(ctx, r.requestor, p.unblockFn, request{addr: r.addr})
	if r.requestor == home {
		th := p.tile(ctx, home)
		th.clearHomeBusy(r.addr)
		th.wakeHome(ctx.Kernel, r.addr)
	}
	e.HomeAck--
	p.maybeComplete(ctx, r.requestor, r.addr)
}

// release runs an unblock at dst: the block thaws there, and the home
// releases it.
func (p *Arin) release(r request, dst topo.Tile) {
	ctx := p.ctx.At(dst)
	t := p.tile(ctx, dst)
	if t.blocked(r.addr) {
		t.clearBlocked(r.addr)
		t.wakeL1(ctx.Kernel, r.addr)
	}
	if dst == ctx.HomeOf(r.addr) {
		t.clearHomeBusy(r.addr)
		t.wakeHome(ctx.Kernel, r.addr)
	}
}

// applyL2 writes the returning form into the home L2 line: the owner
// form tracks one area's sharers, the inter-area form only providers.
func (p *Arin) applyL2(line *cache.Line, dirty bool, f l2Form) {
	line.State = f.state
	line.Dirty = line.Dirty || dirty
	line.AreaTag = f.areaTag
	if f.state == l2Inter {
		line.ProPos = f.propos
		line.Sharers = 0
	} else {
		line.Sharers = f.sharers
		line.ProPos = noProPos
	}
}

// evictL2 invalidates an owner-form victim's tracked sharers (a single
// area: cheap unicasts) or, for an inter-area victim, every copy on the
// chip by broadcast (Section IV-B1's replacement variant): every other
// L1 blocks the address and acks the home's round, whose roundDone
// broadcasts the unblock.
func (p *Arin) evictL2(ctx *Context, home topo.Tile, addr cache.Addr, victim cache.Line, ins *message) {
	if victim.State != l2Inter {
		sharers := victim.Sharers
		if victim.AreaTag < 0 {
			sharers = 0
		}
		p.evictL2Sharers(ctx, home, addr, victim, int(victim.AreaTag), sharers, ins)
		return
	}
	ctx.spanEvent("l2-evict", home, addr)
	p.openRound(ctx, home, addr, round{acks: int16(ctx.NumTiles() - 1), dirty: victim.Dirty, bcast: true, resume: ins})
	// The broadcast excludes the source tile: invalidate the home tile's
	// own L1 copy inline (its ack is not counted).
	p.tile(ctx, home).dropCopy(ctx, addr)
	p.broadcast(ctx, home, p.bcastRoundFn, request{addr: addr, acks: -1})
}

// roundDone ends an L2 victim's eviction round; a broadcast round first
// broadcasts the unblock (phase three; the home is the source, so no
// destination releases it).
func (p *Arin) roundDone(ctx *Context, home topo.Tile, addr cache.Addr, rd round) {
	if rd.bcast {
		p.broadcast(ctx, home, p.unblockFn, request{addr: addr})
	}
	p.dicoCore.roundDone(ctx, home, addr, rd)
}

// checkBlock is the variant half of CheckInvariants. Beyond the
// family-wide checks: an owned block's shared copies in the owner's
// area are covered by its sharing code; a block with no L1 owner is
// present in the home L2; provider copies exist only for blocks whose
// home entry is inter-area.
func (p *Arin) checkBlock(addr cache.Addr, bc *blockCopies, l2line *cache.Line) {
	if bc.owner >= 0 {
		ol := p.tiles[bc.owner].l1.Peek(addr)
		area := p.areaOf(bc.owner)
		for t, s := range bc.holders {
			if s == dcShared && p.areaOf(t) == area && ol.Sharers&p.areaBit(t) == 0 {
				panic(fmt.Sprintf("arin: block %#x sharer %d not in owner %d's code", addr, t, bc.owner))
			}
		}
		return
	}
	if l2line == nil {
		panic(fmt.Sprintf("arin: block %#x cached (%v) with no owner and no L2 copy", addr, bc.holders))
	}
	for _, s := range bc.holders {
		if s == dcProvider && l2line.State != l2Inter {
			panic(fmt.Sprintf("arin: block %#x has providers but home entry is owner-form", addr))
		}
	}
}
