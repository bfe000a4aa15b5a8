package proto

import (
	"fmt"

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

	invalPvFn   func(any) // provider invalidation at m.tile
	roundPvFn   func(any) // provider leg of an L2 eviction round at m.tile
	repairFn    func(any) // stale-ProPo repair at the supplier m.tile
	stragglerFn func(any) // a straggler's copy dropped at m.tile
	// The legs of setProPo: at the hinted owner (which falls back via
	// the home), at the home, and at the owner the home names.
	proPoFn, proPoHomeFn, proPoFwdFn func(any)
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
	p.repairFn = func(a any) { p.repairStaleProPo(p.recv(a)) }
	p.stragglerFn = func(a any) {
		r, tile := p.recv(a)
		ctx := p.ctx.At(tile)
		p.tile(ctx, tile).dropCopy(ctx, r.addr)
	}
	p.proPoFn = func(a any) {
		if m := a.(*message); !p.proPoAtOwner(m) {
			p.ctx.At(m.tile).SendCtlArg(m.tile, p.ctx.HomeOf(m.r.addr), p.proPoHomeFn, m)
		}
	}
	p.proPoHomeFn = func(a any) { p.proPoHome(a.(*message)) }
	p.proPoFwdFn = func(a any) {
		if m := a.(*message); !p.proPoAtOwner(m) {
			p.putMsg(p.ctx.At(m.tile), m.tile, m)
		}
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
		m := p.msg(ctx, tile, request{addr: r.addr, requestor: tile})
		m.tile = r.via
		ctx.SendCtlArg(tile, r.via, p.repairFn, m)
	}
	r.via = -1
	return r
}

// repairStaleProPo runs at the supplier that forwarded a request
// believing r.requestor was a provider: it drops that stale pointer.
func (p *Providers) repairStaleProPo(r request, supplier topo.Tile) {
	ctx := p.ctx.At(supplier)
	area, idx := p.areaOf(r.requestor), p.areaIdx(r.requestor)
	st := p.tile(ctx, supplier)
	if ol := st.l1.Peek(r.addr); ol != nil && dcIsOwner(ol.State) && ol.ProPos[area] == idx {
		ol.ProPos[area] = -1
		ctx.pw.L1TagWrite.Inc()
		return
	}
	if l2line := st.l2.Peek(r.addr); l2line != nil && l2line.ProPos[area] == idx {
		l2line.ProPos[area] = -1
		ctx.pw.L2TagWrite.Inc()
	}
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
// moves to a sharer of the area (an offer chain), or the owner learns
// the area has no provider left (No_Provider).
func (p *Providers) evictProvider(ctx *Context, tile topo.Tile, addr cache.Addr, victim cache.Line) {
	m := p.msg(ctx, tile, request{addr: addr})
	m.supplier = victim.Owner
	if sharers := victim.Sharers &^ p.areaBit(tile); sharers != 0 {
		m.kind, m.list, m.vector = offerProvidership, sharers, sharers
		p.offer(ctx, tile, m)
		return
	}
	p.setProPo(ctx, tile, m, -1)
}

// endOffer ends a providership offer: the acceptor hints the others and
// notifies the owner with Change_Provider. If nobody accepts, the area
// loses its provider. An ownership offer ends as in the core.
func (p *Providers) endOffer(ctx *Context, tile topo.Tile, line *cache.Line, m *message) {
	if m.kind != offerProvidership {
		p.dicoCore.endOffer(ctx, tile, line, m)
		return
	}
	addr, area, others := m.r.addr, p.areaOf(tile), m.vector
	if line == nil {
		// Skipped in-flight readers would be unreachable for later
		// invalidations, so they are conservatively dropped now.
		p.invalidateStragglers(ctx, tile, addr, area, others)
		p.setProPo(ctx, tile, m, -1)
		return
	}
	line.State = dcProvider
	line.Sharers = others
	line.Owner = m.supplier
	// Providership moves update predictions (Figure 5).
	p.hintSharers(ctx, tile, addr, area, others)
	ctx.pw.L1TagWrite.Inc()
	// Change_Provider to the owner (acked; the ack gates further
	// transfers, modelled by the ordering guard at the home).
	p.setProPo(ctx, tile, m, p.areaIdx(tile))
}

// setProPo routes m as a Change_Provider (idx >= 0) or No_Provider (idx
// = -1) for from's area to the block's owner: first to the hinted L1
// owner m.supplier, falling back through the home's L2C$, and finally
// to the home's own L2 entry when the L2 is the owner. An owner in
// motion drops the update; stale ProPos are tolerated (they miss and
// fall back to the home). The owner acks from.
func (p *Providers) setProPo(ctx *Context, from topo.Tile, m *message, idx int8) {
	m.r.requestor, m.idx = from, idx
	if m.supplier < 0 {
		ctx.SendCtlArg(from, ctx.HomeOf(m.r.addr), p.proPoHomeFn, m)
		return
	}
	m.tile = topo.Tile(m.supplier)
	ctx.SendCtlArg(from, m.tile, p.proPoFn, m)
}

// proPoAtOwner applies Change_Provider m at the supposed owner m.tile
// and reports whether it held the ownership; if so, it acks the sender.
func (p *Providers) proPoAtOwner(m *message) bool {
	owner, addr := m.tile, m.r.addr
	ctx := p.ctx.At(owner)
	ctx.pw.L1TagRead.Inc()
	ol := p.tile(ctx, owner).l1.Peek(addr)
	if ol == nil || !dcIsOwner(ol.State) {
		return false
	}
	ol.ProPos[p.areaOf(m.r.requestor)] = m.idx
	ctx.pw.L1TagWrite.Inc()
	m.tile = m.r.requestor
	ctx.SendCtlArg(owner, m.tile, p.sinkFn, m) // ack
	return true
}

// proPoHome runs Change_Provider m at the home: on to the owner its
// L2C$ names, or into the home L2 line when the L2 owns the block.
func (p *Providers) proPoHome(m *message) {
	addr := m.r.addr
	home := p.ctx.HomeOf(addr)
	ctx := p.ctx.At(home)
	th := p.tile(ctx, home)
	ctx.pw.L2CAccess.Inc()
	if ptr, ok := th.l2c.Lookup(addr); ok {
		m.tile = topo.Tile(ptr)
		ctx.SendCtlArg(home, m.tile, p.proPoFwdFn, m)
		return
	}
	if l2line := th.l2.Peek(addr); l2line != nil {
		l2line.ProPos[p.areaOf(m.r.requestor)] = m.idx
		ctx.pw.L2TagWrite.Inc()
		m.tile = m.r.requestor
		ctx.SendCtlArg(home, m.tile, p.sinkFn, m) // ack
		return
	}
	p.putMsg(ctx, home, m)
}

// invalidateStragglers fire-and-forget invalidates leftover area
// copies whose supplier went away before they could be handed over.
func (p *Providers) invalidateStragglers(ctx *Context, from topo.Tile, addr cache.Addr, area int, vector uint64) {
	p.sendArea(ctx, from, area, vector, p.stragglerFn, request{addr: addr})
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

// checkBlock is the variant half of CheckInvariants. Beyond the
// family-wide checks: ownership exists somewhere for every cached
// block, each area has at most one provider and none in the owner's
// area, and the owner's ProPos point at the real providers.
func (p *Providers) checkBlock(addr cache.Addr, bc *blockCopies, l2line *cache.Line) {
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
}
