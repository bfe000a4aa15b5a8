package proto

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/topo"
)

// Providers implements DiCo-Providers (Section III-A and Tables I/II):
// coherence information is kept per area, every area can have a
// provider able to supply deduplicated data without leaving the area,
// and a single ordering point (the owner) remains so the protocol has
// one level like a flat directory. Owners track their area's sharers
// plus one provider pointer (ProPo) per remote area; providers track
// their own area's sharers; the home L2 owner form keeps only the
// provider pointers (Table V).
type Providers struct {
	dicoCore

	invalPvFn func(any) // provider invalidation at m.tile
	roundPvFn func(any) // provider leg of an L2 eviction round at m.tile
}

// NewProviders builds the DiCo-Providers engine on ctx.
func NewProviders(ctx *Context) *Providers {
	p := &Providers{}
	p.init(ctx, "providers", ctx.Areas, p)
	p.invalPvFn = func(a any) {
		r, tile := p.recv(a)
		ctx := p.ctx.At(tile)
		ctx.chargeVM(r.requestor)
		p.invalidateProvider(ctx, tile, r.addr, r.requestor)
	}
	// The provider drops its copy, sends round invalidations to the
	// sharers it tracked, and acks the home with their count.
	p.roundPvFn = func(a any) {
		m := a.(*message)
		addr, prov := m.r.addr, m.tile
		ctx := p.ctx.At(prov)
		sharers := p.dropProvider(ctx, prov, addr)
		p.roundInvalArea(ctx, prov, addr, p.areaOf(prov), sharers)
		m.r.acks, m.r.provAcks, m.dirty = int16(popcount(sharers)), -1, false
		ctx.SendCtlArg(prov, ctx.HomeOf(addr), p.roundAckFn, m)
	}
	return p
}

// remoteRead implements the owner rows of Table I for a read from
// another area: forward to that area's provider, or make the requestor
// its area's provider.
func (p *Providers) remoteRead(ctx *Context, r request, owner topo.Tile, line *cache.Line) {
	reqArea := p.areaOf(r.requestor)
	if line.ProPos[reqArea] >= 0 {
		r.forwards++
		r.via = owner
		p.forwardL1(ctx, owner, p.tileAt(reqArea, int(line.ProPos[reqArea])), r)
		return
	}
	r.clsPlus1 = classify(&r, byOwner)
	line.ProPos[reqArea] = p.areaIdx(r.requestor)
	line.State = dcOwnerShared
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	p.deliver(ctx, r, owner, dcProvider, false, int16(owner), nil)
}

// providerRead: the provider supplies inside its area — the shortened
// miss — and tracks the requestor as a sharer.
func (p *Providers) providerRead(ctx *Context, r request, provider topo.Tile, line *cache.Line) {
	r.clsPlus1 = classify(&r, byProvider)
	line.Sharers |= p.areaBit(r.requestor)
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	p.deliver(ctx, r, provider, dcShared, false, int16(provider), nil)
}

// forwardHome: if an owner or the home sent this request here
// believing tile was a provider, its pointer is stale — repair it, or
// reads from this area would loop owner -> stale provider -> home ->
// owner forever.
func (p *Providers) forwardHome(ctx *Context, r request, tile topo.Tile) request {
	if r.via >= 0 {
		p.repairStaleProPo(ctx, tile, r.addr, r.via)
	}
	r.via = -1
	return r
}

// repairStaleProPo tells the supplier that forwarded a request
// (believing the receiver was a provider) to drop its stale pointer.
func (p *Providers) repairStaleProPo(ctx *Context, notProvider topo.Tile, addr cache.Addr, supplier topo.Tile) {
	area := p.areaOf(notProvider)
	idx := p.areaIdx(notProvider)
	ctx.SendCtl(notProvider, supplier, func() {
		sctx := p.ctx.At(supplier)
		st := p.tile(sctx, supplier)
		if ol := st.l1.Peek(addr); ol != nil && dcIsOwner(ol.State) && ol.ProPos[area] == idx {
			ol.ProPos[area] = -1
			sctx.pw.L1TagWrite.Inc()
			return
		}
		if l2line := st.l2.Peek(addr); l2line != nil && l2line.ProPos[area] == idx {
			l2line.ProPos[area] = -1
			sctx.pw.L2TagWrite.Inc()
		}
	})
}

// invalidateProviders sends a provider invalidation to every provider
// outside skipArea. A requestor that is itself a provider is skipped:
// it invalidates its own sharers when the ownership arrives (fill
// time).
func (p *Providers) invalidateProviders(ctx *Context, from topo.Tile, addr cache.Addr,
	propos [cache.MaxSimAreas]int8, skipArea int, requestor topo.Tile) int {
	n := 0
	for a := 0; a < p.areas.Count; a++ {
		if a == skipArea || propos[a] < 0 {
			continue
		}
		prov := p.tileAt(a, int(propos[a]))
		if prov == requestor {
			continue
		}
		n++
		m := p.msg(ctx, from, request{addr: addr, requestor: requestor})
		m.tile = prov
		ctx.SendCtlArg(from, prov, p.invalPvFn, m)
	}
	return n
}

// invalidateProvider drops a provider and its area's sharers; the
// provider acks the requestor with its sharer count (incrementing the
// requestor's sharer-ack counter) and the sharers ack directly.
func (p *Providers) invalidateProvider(ctx *Context, tile topo.Tile, addr cache.Addr, requestor topo.Tile) {
	area := p.areaOf(tile)
	sharers := p.dropProvider(ctx, tile, addr)
	if p.areaOf(requestor) == area {
		sharers &^= p.areaBit(requestor)
	}
	p.invalidateSharers(ctx, tile, addr, requestor, area, sharers)
	p.tile(ctx, tile).l1c.Update(addr, int16(requestor))
	ctx.pw.L1CUpdate.Inc()
	m := p.msg(ctx, tile, request{addr: addr, acks: int16(popcount(sharers)), provAcks: -1})
	m.tile = requestor
	ctx.SendCtlArg(tile, requestor, p.ackFn, m)
}

// dropProvider invalidates a provider's copy and returns the sharers
// of its area it tracked. If providership moved while the invalidation
// was in flight, it conservatively returns the whole area so no sharer
// survives.
func (p *Providers) dropProvider(ctx *Context, tile topo.Tile, addr cache.Addr) uint64 {
	if old, ok := p.tile(ctx, tile).dropCopy(ctx, addr); ok && old.State == dcProvider {
		return old.Sharers &^ p.areaBit(tile)
	}
	var all uint64
	for _, at := range p.areas.TilesIn(p.areaOf(tile)) {
		if at != tile {
			all |= p.areaBit(at)
		}
	}
	return all
}

// homeSupply dispatches at the home per the L2 rows of Table I: a read
// goes to the requestor's area provider if there is one, otherwise the
// ownership moves to the requestor (event (3) of Section III-A); a
// write invalidates through the providers and takes the ownership.
func (p *Providers) homeSupply(ctx *Context, r request, home topo.Tile, l2line *cache.Line) {
	reqArea := p.areaOf(r.requestor)
	if !r.write && l2line.ProPos[reqArea] >= 0 {
		if r.forwards >= maxForwards {
			p.retry(ctx, home, r)
			return
		}
		r.forwards++
		r.via = home
		ctx.spanEvent("home-forward-provider", home, r.addr)
		p.forwardL1(ctx, home, p.tileAt(reqArea, int(l2line.ProPos[reqArea])), r)
		return
	}
	r.clsPlus1 = classify(&r, byHome)
	if !r.write {
		propos := l2line.ProPos
		p.grantFromHome(ctx, r, home, dcOwnerShared, l2line.Dirty, &propos)
		return
	}
	// The provider-ack expectations ride to the requestor on the data.
	r.provAcks += int16(p.invalidateProviders(ctx, home, r.addr, l2line.ProPos, -1, r.requestor))
	p.grantFromHome(ctx, r, home, dcOwnerModified, true, nil)
}

// evictProvider implements the provider rows of Table II: providership
// moves to a sharer of the area, or the owner learns the area has no
// provider left (No_Provider).
func (p *Providers) evictProvider(ctx *Context, tile topo.Tile, addr cache.Addr, victim cache.Line) {
	area := p.areaOf(tile)
	if sharers := victim.Sharers &^ p.areaBit(tile); sharers != 0 {
		p.transferProvidership(ctx, tile, addr, area, sharers, victim.Owner)
		return
	}
	p.setProPo(ctx, tile, addr, victim.Owner, area, -1)
}

// transferProvidership offers providership to the area's sharers in
// turn; the acceptor hints the others and notifies the owner with
// Change_Provider. If nobody accepts, the area loses its provider.
func (p *Providers) transferProvidership(ctx *Context, from topo.Tile, addr cache.Addr, area int, sharers uint64,
	ownerHint int16) {
	p.offer(ctx, from, addr, area, sharers, sharers,
		func(tctx *Context, target topo.Tile, line *cache.Line, others uint64) {
			line.State = dcProvider
			line.Sharers = others
			line.Owner = ownerHint
			// Providership moves update predictions (Figure 5).
			p.hintSharers(tctx, target, addr, area, others)
			tctx.pw.L1TagWrite.Inc()
			// Change_Provider to the owner (acked; the ack gates further
			// transfers, modelled by the ordering guard at the home).
			p.setProPo(tctx, target, addr, ownerHint, area, p.areaIdx(target))
		},
		func(lctx *Context, last topo.Tile, vector uint64) {
			// Skipped in-flight readers would be unreachable for later
			// invalidations, so they are conservatively dropped now.
			p.invalidateStragglers(lctx, last, addr, area, vector)
			p.setProPo(lctx, last, addr, ownerHint, area, -1)
		})
}

// setProPo routes a Change_Provider (idx >= 0) or No_Provider (idx =
// -1) for area to the block's owner: first to the hinted L1 owner,
// falling back through the home's L2C$, and finally to the home's own
// L2 entry when the L2 is the owner. An owner in motion drops the
// update; stale ProPos are tolerated (they miss and fall back to the
// home).
func (p *Providers) setProPo(ctx *Context, from topo.Tile, addr cache.Addr, ownerHint int16, area int, idx int8) {
	home := ctx.HomeOf(addr)
	// atOwner runs on owner's lane and reports whether it held the
	// ownership.
	atOwner := func(owner topo.Tile) bool {
		octx := p.ctx.At(owner)
		octx.pw.L1TagRead.Inc()
		ol := p.tile(octx, owner).l1.Peek(addr)
		if ol == nil || !dcIsOwner(ol.State) {
			return false
		}
		ol.ProPos[area] = idx
		octx.pw.L1TagWrite.Inc()
		octx.SendCtl(owner, from, func() {}) // ack
		return true
	}
	// viaHome probes the home from at's lane: a failed hint probe falls
	// back from the probed tile, not from the original sender.
	viaHome := func(at topo.Tile, actx *Context) {
		actx.SendCtl(at, home, func() {
			hctx := p.ctx.At(home)
			th := p.tile(hctx, home)
			hctx.pw.L2CAccess.Inc()
			if ptr, ok := th.l2c.Lookup(addr); ok {
				owner := topo.Tile(ptr)
				hctx.SendCtl(home, owner, func() { atOwner(owner) })
				return
			}
			if l2line := th.l2.Peek(addr); l2line != nil {
				l2line.ProPos[area] = idx
				hctx.pw.L2TagWrite.Inc()
				hctx.SendCtl(home, from, func() {}) // ack
			}
		})
	}
	if ownerHint < 0 {
		viaHome(from, ctx)
		return
	}
	owner := topo.Tile(ownerHint)
	ctx.SendCtl(from, owner, func() {
		if !atOwner(owner) {
			viaHome(owner, p.ctx.At(owner))
		}
	})
}

// invalidateStragglers fire-and-forget invalidates leftover area
// copies whose supplier went away before they could be handed over.
func (p *Providers) invalidateStragglers(ctx *Context, from topo.Tile, addr cache.Addr, area int, vector uint64) {
	for v := vector; v != 0; v &= v - 1 {
		straggler := p.tileAt(area, bits.TrailingZeros64(v))
		ctx.SendCtl(from, straggler, func() {
			sctx := p.ctx.At(straggler)
			p.tile(sctx, straggler).dropCopy(sctx, addr)
		})
	}
}

// writebackForm returns ownership with the provider pointers only: no
// sharers remain in the owner's area, so it needs no provider there,
// and since the home L2-owner form keeps no sharer information (Table
// V), leftover in-flight readers of that area are conservatively
// invalidated — their fills drop on arrival and they re-miss at the
// home.
func (p *Providers) writebackForm(ctx *Context, tile topo.Tile, addr cache.Addr, propos [cache.MaxSimAreas]int8,
	leftover uint64) l2Form {
	area := p.areaOf(tile)
	propos[area] = -1
	p.invalidateStragglers(ctx, tile, addr, area, leftover)
	return l2Form{state: l2Present, areaTag: -1, propos: propos}
}

// relinquishForm converts a recalled L1 owner into its area's provider
// (it keeps tracking its area's sharers); the home L2 takes the
// ownership with the provider pointers, the former owner among them.
func (p *Providers) relinquishForm(_ *Context, owner topo.Tile, line *cache.Line) l2Form {
	f := l2Form{state: l2Present, areaTag: -1, propos: line.ProPos}
	f.propos[p.areaOf(owner)] = p.areaIdx(owner)
	line.State = dcProvider
	line.ProPos = noProPos
	return f
}

// applyL2 merges the returning provider pointers into the home L2 line.
func (p *Providers) applyL2(line *cache.Line, dirty bool, f l2Form) {
	line.Dirty = line.Dirty || dirty
	for a, pp := range f.propos {
		if pp >= 0 {
			line.ProPos[a] = pp
		}
	}
}

// evictL2 invalidates an L2-owned victim through its providers in an
// eviction round: the two-counter scheme, with the home as both owner
// and requestor (roundPvFn is the provider's leg).
func (p *Providers) evictL2(ctx *Context, home topo.Tile, addr cache.Addr, victim cache.Line, ins *message) {
	rd := round{dirty: victim.Dirty, resume: ins}
	for _, pp := range victim.ProPos {
		if pp >= 0 {
			rd.provAcks++
		}
	}
	p.openRound(ctx, home, addr, rd)
	for a := 0; a < p.areas.Count; a++ {
		if victim.ProPos[a] >= 0 {
			m := p.msg(ctx, home, request{addr: addr})
			m.tile = p.tileAt(a, int(victim.ProPos[a]))
			ctx.SendCtlArg(home, m.tile, p.roundPvFn, m)
		}
	}
}

// CheckInvariants implements Engine; call at quiescence. Beyond the
// family-wide checks: ownership exists somewhere for every cached
// block, each area has at most one provider and none in the owner's
// area, and the owner's ProPos point at the real providers.
func (p *Providers) CheckInvariants() {
	p.checkBlocks(func(addr cache.Addr, bc *blockCopies, l2line *cache.Line) {
		if bc.owner < 0 && l2line == nil {
			panic(fmt.Sprintf("providers: block %#x cached with no owner (holders %v)", addr, bc.holders))
		}
		var propos *[cache.MaxSimAreas]int8
		ownerArea := -1
		if bc.owner >= 0 {
			propos = &p.tiles[bc.owner].l1.Peek(addr).ProPos
			ownerArea = p.areaOf(bc.owner)
		} else {
			propos = &l2line.ProPos
		}
		providers := map[int]topo.Tile{}
		for t, s := range bc.holders {
			if s != dcProvider {
				continue
			}
			area := p.areaOf(t)
			if prev, ok := providers[area]; ok {
				panic(fmt.Sprintf("providers: block %#x has two providers in area %d (%d, %d)", addr, area, prev, t))
			}
			providers[area] = t
			if area == ownerArea {
				panic(fmt.Sprintf("providers: block %#x has provider %d in the owner's area", addr, t))
			}
			if propos[area] >= 0 && p.tileAt(area, int(propos[area])) != t {
				panic(fmt.Sprintf("providers: block %#x ProPos[%d]=%d but provider is %d", addr, area, propos[area], t))
			}
		}
	})
}
