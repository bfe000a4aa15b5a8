package proto

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/topo"
)

// DiCo is the original Direct Coherence protocol [7]: ownership and
// coherence information live in the L1 caches, the L1C$ predicts the
// supplier so most misses resolve in two hops, and the home's L2C$
// tracks the precise owner for mispredictions.
//
// It is the DiCo-family core in its degenerate configuration: one area
// spanning the chip, so every sharing code is a full-map vector, no
// request comes from a remote area and no copy becomes a provider.
// When the home L2 owns a block, its line keeps the full sharing code.
type DiCo struct{ dicoCore }

// NewDiCo builds the DiCo engine on ctx.
func NewDiCo(ctx *Context) *DiCo {
	p := &DiCo{}
	p.init(ctx, "dico", topo.MustAreas(ctx.Net.Grid(), 1), p)
	return p
}

// homeSupply serves a request when the home L2 owns the block: a read
// joins the L2's sharing code, a write invalidates it and takes the
// ownership.
func (p *DiCo) homeSupply(ctx *Context, r request, home topo.Tile, l2line *cache.Line) {
	r.clsPlus1 = classify(&r, byHome)
	if r.write {
		sharers := l2line.Sharers &^ bit(r.requestor)
		r.acks += int16(popcount(sharers))
		p.invalidateSharers(ctx, home, r.addr, r.requestor, 0, sharers)
		p.grantFromHome(ctx, r, home, dcOwnerModified, true, nil)
		return
	}
	l2line.Sharers |= bit(r.requestor)
	ctx.pw.L2DataRead.Inc()
	p.deliver(ctx, r, home, dcShared, false, -1, nil)
}

// applyL2 merges the returning sharing code into the home L2 line.
func (p *DiCo) applyL2(line *cache.Line, dirty bool, f l2Form) {
	line.Dirty = line.Dirty || dirty
	line.Sharers |= f.sharers
}

// evictL2 invalidates every sharer of an L2-owned victim (the same
// mechanism as a write, with the L2 as both owner and requestor).
func (p *DiCo) evictL2(ctx *Context, home topo.Tile, addr cache.Addr, victim cache.Line, ins *message) {
	p.evictL2Sharers(ctx, home, addr, victim, 0, victim.Sharers, ins)
}

// checkBlock is the variant half of CheckInvariants. Beyond the
// family-wide checks: with no L1 owner the home L2 must own the block
// and its sharing code cover every copy; an L1 owner's sharing code
// covers every other copy.
func (p *DiCo) checkBlock(addr cache.Addr, bc *blockCopies, l2line *cache.Line) {
	var sharers uint64
	for t := range bc.holders {
		if t != bc.owner {
			sharers |= bit(t)
		}
	}
	if bc.owner >= 0 {
		if ol := p.tiles[bc.owner].l1.Peek(addr); ol.Sharers&sharers != sharers {
			panic(fmt.Sprintf("dico: block %#x owner %d sharing code %#x misses sharers %#x",
				addr, bc.owner, ol.Sharers, sharers))
		}
		return
	}
	if l2line == nil {
		panic(fmt.Sprintf("dico: block %#x has sharers %#x but no owner anywhere", addr, sharers))
	}
	if l2line.Sharers&sharers != sharers {
		panic(fmt.Sprintf("dico: block %#x L2 sharers %#x miss holders %#x", addr, l2line.Sharers, sharers))
	}
}
