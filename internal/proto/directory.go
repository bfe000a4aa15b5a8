package proto

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// L1 states of the flat directory protocol (MESI).
const (
	dirShared cache.State = 1 + iota
	dirExclusive
	dirModified
)

// l2Present marks a valid L2 data line (all protocols).
const l2Present cache.State = 1

// Directory is the paper's baseline: a highly-optimized flat full-map
// directory. Directory information lives in the extra tags of the L2
// (the NCID approach): it can outlive the L2 data block, and only the
// eviction of a directory entry forces chip-wide invalidation.
type Directory struct {
	engineBase[cache.BareLine]

	// The timestamp of the newest ownership decision applied to a
	// home's directory entry lives in the home tile's stamp table
	// (tileState.stampIfNewer). Ownership updates travel the mesh from
	// different source tiles and can arrive out of order; an update
	// whose decision predates the applied one must be dropped or it
	// resurrects a stale owner pointer and every request
	// forwards/bounces forever (found by the stress fuzzer, seed 139).

	// Directory-only adapters for the kernel/mesh argument fast path
	// (the shared ones live in engineBase).
	atOwnerFn     func(any)
	atSharerFn    func(any)
	sharerRetryFn func(any)
	handoverFn    func(any)
	downgradeFn   func(any)
	evictWbFn     func(any)
}

// NewDirectory builds the directory engine on ctx.
func NewDirectory(ctx *Context) *Directory {
	d := &Directory{}
	d.init(ctx, "directory", false, cache.NewBare, d)
	d.bindHandlers()
	for _, t := range d.tiles {
		t.dir = cache.NewDir("dir", ctx.Cfg.L2Sets, ctx.Cfg.DirWays())
		t.dir.SetIndexShift(ctx.BankShift())
	}
	return d
}

// bindHandlers builds the directory's own adapter funcs once; every
// per-message send reuses them with a pooled *message argument.
func (d *Directory) bindHandlers() {
	d.atOwnerFn = func(a any) { d.atOwner(d.recv(a)) }
	d.atSharerFn = func(a any) { d.atSharerSupply(d.recv(a)) }
	// sharerRetryFn runs at the home after a forwarded read found the
	// sharer's copy silently evicted: drop the stale sharer bit and
	// restart the request.
	d.sharerRetryFn = func(a any) {
		m := a.(*message)
		r, sharer, stamp := m.r, m.tile, m.stamp
		home := d.ctx.HomeOf(r.addr)
		ctx := d.ctx.At(home)
		d.putMsg(ctx, home, m)
		ctx.chargeVM(r.requestor)
		d.homeDirUpdate(ctx, home, r.addr, stamp, func(dl *cache.DirLine) {
			dl.Sharers &^= bit(sharer)
		})
		d.atHome(r)
	}
	// handoverFn applies the write-handover directory update at the
	// home: the forwarded write made m.tile the new exclusive owner.
	d.handoverFn = func(a any) {
		m := a.(*message)
		addr, stamp, newOwner := m.r.addr, m.stamp, m.tile
		home := d.ctx.HomeOf(addr)
		ctx := d.ctx.At(home)
		d.putMsg(ctx, home, m)
		ctx.chargeVM(newOwner)
		d.homeDirUpdate(ctx, home, addr, stamp, func(dl *cache.DirLine) {
			dl.Owner = int16(newOwner)
			dl.Sharers = bit(newOwner)
		})
	}
	// downgradeFn applies the read-downgrade update: the old owner
	// (m.tile) became a sharer alongside the requestor, and its data
	// writeback lands in the home L2 (or memory if superseded).
	d.downgradeFn = func(a any) {
		m := a.(*message)
		addr, stamp, owner, requestor, dirty := m.r.addr, m.stamp, m.tile, m.r.requestor, m.dirty
		home := d.ctx.HomeOf(addr)
		ctx := d.ctx.At(home)
		d.putMsg(ctx, home, m)
		ctx.chargeVM(requestor)
		if !d.homeDirUpdate(ctx, home, addr, stamp, func(dl *cache.DirLine) {
			dl.Owner = -1
			dl.Sharers |= bit(owner) | bit(requestor)
		}) {
			if dirty {
				d.flush(ctx, home, addr)
			}
			return
		}
		d.insertL2Data(ctx, home, addr, dirty)
	}
	// evictWbFn applies an owned-eviction update: m.tile gave up the
	// block entirely.
	d.evictWbFn = func(a any) {
		m := a.(*message)
		addr, stamp, tile, dirty := m.r.addr, m.stamp, m.tile, m.dirty
		home := d.ctx.HomeOf(addr)
		ctx := d.ctx.At(home)
		d.putMsg(ctx, home, m)
		ctx.chargeVM(tile)
		if !d.homeDirUpdate(ctx, home, addr, stamp, func(dl *cache.DirLine) {
			dl.Owner = -1
			dl.Sharers &^= bit(tile)
		}) {
			if dirty {
				d.flush(ctx, home, addr)
			}
			return
		}
		d.insertL2Data(ctx, home, addr, dirty)
	}
}

// memFill lands memory data at the home: the directory keeps a copy of
// read data in the shared L2 (deduplicated data is stored once for all
// VMs), then forwards it on.
func (d *Directory) memFill(ctx *Context, r request, home topo.Tile) {
	if r.write {
		d.deliver(ctx, r, home, dirModified, true, -1, nil)
		return
	}
	d.insertL2Data(ctx, home, r.addr, false)
	d.deliver(ctx, r, home, dirExclusive, false, -1, nil)
}

// Issue implements Engine.
func (d *Directory) Issue(tile topo.Tile, addr cache.Addr, write bool, onDone func()) bool {
	ctx := d.ctx.At(tile)
	ctx.chargeVM(tile)
	t := d.tile(ctx, tile)
	if _, pending := t.mshr.Lookup(addr); pending {
		d.stallAccess(ctx, tile, addr, write, onDone)
		return false
	}
	ctx.pw.L1TagRead.Inc()
	if line := t.l1.Lookup(addr); line != nil {
		if !write {
			d.hit(ctx, tile, addr, false)
			return true
		}
		if line.State == dirModified || line.State == dirExclusive {
			line.State = dirModified
			line.Dirty = true
			d.hit(ctx, tile, addr, true)
			return true
		}
		// Shared copy under a write: ownership upgrade, handled as a
		// regular write miss (responses always carry data; see
		// DESIGN.md, Known simplifications).
	}
	e := t.mshr.Allocate(addr, write, uint64(ctx.Kernel.Now()))
	e.OnComplete = onDone
	e.Tag = int(MissUnpredHome)
	ctx.spanBegin(tile, addr, write)
	home := ctx.HomeOf(addr)
	del := ctx.SendCtlArg(tile, home, d.atHomeFn, d.msg(ctx, tile, request{addr: addr, requestor: tile, write: write}))
	e.Links += del.Hops
	return false
}

// atHome processes a request at the block's home bank.
func (d *Directory) atHome(r request) {
	home := d.ctx.HomeOf(r.addr)
	ctx := d.ctx.At(home)
	ctx.chargeVM(r.requestor)
	th := d.tile(ctx, home)
	if th.homeBusy(r.addr) {
		th.stallHomeArg(r.addr, d.atHomeFn, d.msg(ctx, home, r))
		return
	}
	ctx.pw.L2TagRead.Inc()
	ctx.pw.DirRead.Inc()
	// One probe serves both the lookup and, on a miss, the victim
	// choice for allocDirEntry — same accounting as a Lookup.
	dline, dirHit, dirValid := th.dir.Probe(r.addr)
	if dirHit {
		th.dir.Touch(dline)
	}
	if !dirHit {
		// A home-busy victim way is one an allocation reserved while its
		// old block's copies are being invalidated: wait for that round.
		if dirValid {
			if victim := th.dir.AddrOf(dline); th.homeBusy(victim) {
				th.stallHomeArg(victim, d.atHomeFn, d.msg(ctx, home, r))
				return
			}
		}
		// Untracked: the block is not cached on chip. Allocate a
		// directory entry (possibly evicting one) and fetch memory.
		d.allocDirEntry(ctx, home, r, dline, dirValid)
		return
	}
	if dline.Owner >= 0 {
		owner := topo.Tile(dline.Owner)
		if owner == r.requestor || r.forwards >= maxForwards {
			// Our own writeback is still in flight, or forwarding keeps
			// bouncing (transfer in flight): back off and retry.
			d.retry(ctx, home, r)
			return
		}
		r.forwards++
		ctx.spanEvent("dir-forward-owner", home, r.addr)
		m := d.msg(ctx, home, r)
		m.tile = owner
		del := ctx.SendCtlArg(home, owner, d.atOwnerFn, m)
		m.r.links += int16(del.Hops)
		return
	}
	if r.write {
		d.homeWrite(ctx, r, dline)
		return
	}
	d.homeRead(ctx, r, dline)
}

// homeRead serves a read at the home when no exclusive L1 owner exists.
func (d *Directory) homeRead(ctx *Context, r request, dline *cache.DirLine) {
	home := ctx.HomeOf(r.addr)
	th := d.tile(ctx, home)
	if th.l2.Lookup(r.addr) != nil {
		ctx.pw.L2DataRead.Inc()
		dline.Sharers |= bit(r.requestor)
		ctx.pw.DirWrite.Inc()
		d.deliver(ctx, r, home, dirShared, false, -1, nil)
		return
	}
	if others := dline.Sharers &^ bit(r.requestor); others != 0 {
		// NCID: data survives only in L1s; forward to the first sharer.
		sharer := topo.Tile(bits.TrailingZeros64(others))
		dline.Sharers |= bit(r.requestor)
		ctx.pw.DirWrite.Inc()
		if r.forwards >= maxForwards {
			d.retry(ctx, home, r)
			return
		}
		r.forwards++
		ctx.spanEvent("dir-forward-sharer", home, r.addr)
		m := d.msg(ctx, home, r)
		m.tile = sharer
		del := ctx.SendCtlArg(home, sharer, d.atSharerFn, m)
		m.r.links += int16(del.Hops)
		return
	}
	// Stale empty entry: treat as a fresh exclusive fetch.
	d.grantFromMemory(ctx, home, dline, r)
}

// grantFromMemory makes r's requestor the exclusive owner in the home's
// entry dl and fetches the block from memory.
func (d *Directory) grantFromMemory(ctx *Context, home topo.Tile, dl *cache.DirLine, r request) {
	dl.Owner = int16(r.requestor)
	dl.Sharers = bit(r.requestor)
	d.stampNow(ctx, home, r.addr)
	ctx.pw.DirWrite.Inc()
	d.fetchFromMemory(ctx, r, home)
}

// homeWrite serves a write at the home when no exclusive L1 owner
// exists: invalidate the sharers, supply data, hand over ownership.
// The expected ack count rides to the requestor with the data message
// instead of being written into its MSHR from here, so the entry's
// SharerAcks may go transiently negative when acks overtake the data —
// which is why it is a counter compared against zero.
func (d *Directory) homeWrite(ctx *Context, r request, dline *cache.DirLine) {
	home := ctx.HomeOf(r.addr)
	th := d.tile(ctx, home)
	sharers := dline.Sharers &^ bit(r.requestor)
	r.acks += int16(popcount(sharers))
	for v := sharers; v != 0; v &= v - 1 {
		sharer := topo.Tile(bits.TrailingZeros64(v))
		m := d.msg(ctx, home, request{addr: r.addr, requestor: r.requestor})
		m.tile = sharer
		ctx.SendCtlArg(home, sharer, d.invalFn, m)
	}
	dline.Owner = int16(r.requestor)
	dline.Sharers = bit(r.requestor)
	d.stampNow(ctx, home, r.addr)
	ctx.pw.DirWrite.Inc()
	if l2line := th.l2.Lookup(r.addr); l2line != nil {
		ctx.pw.L2DataRead.Inc()
		// The L2 copy is stale once the new owner writes.
		th.l2.InvalidateLine(l2line)
		ctx.pw.L2TagWrite.Inc()
		d.deliver(ctx, r, home, dirModified, true, -1, nil)
		return
	}
	d.fetchFromMemory(ctx, r, home)
}

// atOwner handles a forwarded request at the (supposed) exclusive L1
// owner.
func (d *Directory) atOwner(r request, owner topo.Tile) {
	ctx := d.ctx.At(owner)
	ctx.chargeVM(r.requestor)
	to := d.tile(ctx, owner)
	if _, pending := to.mshr.Lookup(r.addr); pending {
		m := d.msg(ctx, owner, r)
		m.tile = owner
		to.stallL1(r.addr, d.atOwnerFn, m)
		return
	}
	ctx.pw.L1TagRead.Inc()
	line := to.l1.Lookup(r.addr)
	if line == nil || (line.State != dirModified && line.State != dirExclusive) {
		// Ownership moved (eviction/writeback in flight); bounce back.
		home := ctx.HomeOf(r.addr)
		m := d.msg(ctx, owner, r)
		del := ctx.SendCtlArg(owner, home, d.atHomeFn, m)
		m.r.links += int16(del.Hops)
		return
	}
	home := ctx.HomeOf(r.addr)
	r.clsPlus1 = int8(MissUnpredOwner) + 1
	dirty := line.Dirty
	stamp := ctx.Kernel.Now()
	if r.write {
		// Hand the block over; tell the home about the new owner.
		to.l1.Invalidate(r.addr)
		ctx.pw.L1TagWrite.Inc()
		ctx.pw.L1DataRead.Inc()
		d.deliver(ctx, r, owner, dirModified, true, -1, nil)
		m := d.msg(ctx, owner, r)
		m.tile = r.requestor
		m.stamp = stamp
		ctx.SendCtlArg(owner, home, d.handoverFn, m)
		return
	}
	// Read: downgrade to shared, supply the requestor, write the block
	// back so the L2 holds it for future readers.
	line.State = dirShared
	line.Dirty = false
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataRead.Inc()
	d.deliver(ctx, r, owner, dirShared, false, -1, nil)
	m := d.msg(ctx, owner, r)
	m.tile = owner
	m.stamp = stamp
	m.dirty = dirty
	ctx.SendDataArg(owner, home, d.downgradeFn, m)
}

// atSharerSupply handles a read forwarded to a clean sharer.
func (d *Directory) atSharerSupply(r request, sharer topo.Tile) {
	ctx := d.ctx.At(sharer)
	ctx.chargeVM(r.requestor)
	ts := d.tile(ctx, sharer)
	ctx.pw.L1TagRead.Inc()
	if line := ts.l1.Lookup(r.addr); line != nil && line.State == dirShared {
		ctx.pw.L1DataRead.Inc()
		d.deliver(ctx, r, sharer, dirShared, false, -1, nil)
		return
	}
	// Silent eviction raced us; drop the stale bit and retry at home.
	home := ctx.HomeOf(r.addr)
	m := d.msg(ctx, sharer, r)
	m.tile = sharer
	m.stamp = ctx.Kernel.Now()
	del := ctx.SendCtlArg(sharer, home, d.sharerRetryFn, m)
	m.r.links += int16(del.Hops)
}

// homeDirUpdate applies fn to the home's directory entry for addr (if
// still present) and wakes stalled requests. stamp is the time the
// reported transition happened at its source; the update is dropped if
// the home has already applied a newer decision — mesh messages from
// different tiles are unordered, and applying a stale ownership update
// over a fresh one leaves a permanently wrong owner pointer. Returns
// whether the update was applied.
func (d *Directory) homeDirUpdate(ctx *Context, home topo.Tile, addr cache.Addr, stamp sim.Time, fn func(*cache.DirLine)) bool {
	th := d.tile(ctx, home)
	if !th.stampIfNewer(ctx, addr, stamp) {
		ctx.spanEvent("stale-update-dropped", home, addr)
		th.wakeHome(ctx.Kernel, addr)
		return false
	}
	if dl := th.dir.Peek(addr); dl != nil {
		fn(dl)
		ctx.pw.DirWrite.Inc()
		ctx.spanEvent("home-update", home, addr)
	}
	th.wakeHome(ctx.Kernel, addr)
	return true
}

// stampNow records a home-side synchronous ownership decision so any
// older in-flight update cannot clobber it later.
func (d *Directory) stampNow(ctx *Context, home topo.Tile, addr cache.Addr) {
	d.tile(ctx, home).stampIfNewer(ctx, addr, ctx.Kernel.Now())
}

// fillL1 installs a delivered block, running the eviction protocol for
// the displaced victim if needed.
func (d *Directory) fillL1(ctx *Context, m *message) {
	tile, addr, state, dirty := m.r.requestor, m.r.addr, m.state, m.dirty
	t := d.tile(ctx, tile)
	ctx.spanEvent("fill", tile, addr)
	ctx.pw.L1TagWrite.Inc()
	ctx.pw.L1DataWrite.Inc()
	victim, hit, valid := t.l1.Probe(addr)
	if hit {
		victim.State = state
		victim.Dirty = victim.Dirty || dirty
		t.l1.Touch(victim)
		return
	}
	if valid {
		d.evictL1(ctx, tile, t.l1.AddrOf(victim), *victim)
	}
	t.l1.Fill(victim, addr, state)
	victim.Dirty = dirty
}

// evictL1 runs the replacement protocol for a victim line: shared
// copies leave silently, owned copies write back to the home.
func (d *Directory) evictL1(ctx *Context, tile topo.Tile, addr cache.Addr, victim cache.BareLine) {
	ctx.spanEvent("evict", tile, addr)
	if victim.State == dirShared {
		return // silent eviction
	}
	home := ctx.HomeOf(addr)
	dirty := victim.Dirty
	stamp := ctx.Kernel.Now()
	ctx.pw.L1DataRead.Inc()
	m := d.msg(ctx, tile, request{addr: addr})
	m.tile = tile
	m.stamp = stamp
	m.dirty = dirty
	ctx.SendDataArg(tile, home, d.evictWbFn, m)
}

// insertL2Data fills the home's L2 bank, evicting (and writing back)
// an L2 victim if needed. Directory info for the L2 victim survives in
// the directory cache (NCID), so no chip-wide invalidation happens
// here.
func (d *Directory) insertL2Data(ctx *Context, home topo.Tile, addr cache.Addr, dirty bool) {
	th := d.tile(ctx, home)
	ctx.pw.L2TagWrite.Inc()
	ctx.pw.L2DataWrite.Inc()
	victim, hit, valid := th.l2.Probe(addr)
	if hit {
		victim.Dirty = victim.Dirty || dirty
		th.l2.Touch(victim)
		return
	}
	if valid && victim.Dirty {
		d.flush(ctx, home, th.l2.AddrOf(victim))
	}
	th.l2.Fill(victim, addr, l2Present)
	victim.Dirty = dirty
}

// allocDirEntry installs r's block in the directory way victim that
// atHome's Probe found (valid: it still tracks a block), evicting that
// entry first. Evicting a directory entry invalidates every cached copy
// of its block chip-wide (NCID rule): an eviction round, after which
// roundDone grants r.
func (d *Directory) allocDirEntry(ctx *Context, home topo.Tile, r request, victim *cache.DirLine, valid bool) {
	th := d.tile(ctx, home)
	if !valid {
		th.dir.Fill(victim, r.addr, cache.Invalid)
		d.grantFromMemory(ctx, home, victim, r)
		return
	}
	// Capture the victim's holders, then reserve the way for the new
	// block: requests for either block stall on homeBusy, and atHome
	// keeps other misses off the reserved way, until the round ends.
	victimAddr := th.dir.AddrOf(victim)
	holders := victim.Sharers
	if victim.Owner >= 0 {
		holders |= bit(topo.Tile(victim.Owner))
	}
	ctx.spanEvent("dir-evict", home, victimAddr)
	// The eviction is a fresh ownership decision for the victim block:
	// stamp it so old-epoch updates in flight cannot touch a future
	// entry re-allocated for the same address.
	d.stampNow(ctx, home, victimAddr)
	th.dir.Fill(victim, r.addr, cache.Invalid)
	ctx.pw.DirWrite.Inc()
	th.setHomeBusy(r.addr)
	d.openRound(ctx, home, victimAddr, round{acks: int16(popcount(holders)), resume: d.msg(ctx, home, r)})
	for v := holders; v != 0; v &= v - 1 {
		d.roundInval(ctx, home, topo.Tile(bits.TrailingZeros64(v)), victimAddr)
	}
}

// dropForRound drops a holder's copy for a directory-entry eviction; a
// dirty copy's data rides back with the ack.
func (d *Directory) dropForRound(ctx *Context, tile topo.Tile, addr cache.Addr) bool {
	old, ok := d.tile(ctx, tile).dropCopy(ctx, addr)
	return ok && old.Dirty
}

// roundDone ends a directory-entry eviction once the victim's copies
// are gone: its L2 data goes (written back if dirty), both blocks are
// released, and the resumed request gets the reserved entry.
func (d *Directory) roundDone(ctx *Context, home topo.Tile, victim cache.Addr, rd round) {
	r := rd.resume.r
	d.putMsg(ctx, home, rd.resume)
	th := d.tile(ctx, home)
	if l2line := th.l2.Peek(victim); l2line != nil {
		if l2line.Dirty {
			d.flush(ctx, home, victim)
		}
		th.l2.InvalidateLine(l2line)
		ctx.pw.L2TagWrite.Inc()
	}
	th.clearHomeBusy(victim)
	th.clearHomeBusy(r.addr)
	th.wakeHome(ctx.Kernel, victim)
	th.wakeHome(ctx.Kernel, r.addr)
	d.grantFromMemory(ctx, home, th.dir.Peek(r.addr), r)
}

// ForEachCopy implements Engine.
func (d *Directory) ForEachCopy(addr cache.Addr, fn func(CopyInfo)) {
	d.forEachCopy(addr, describeBare, fn)
}

func describeBare(l *cache.BareLine) CopyInfo {
	excl := l.State == dirModified || l.State == dirExclusive
	return CopyInfo{Owner: excl, Exclusive: excl, Dirty: l.Dirty, State: l.State}
}

// CheckInvariants implements Engine. Call only at quiescence (no
// pending events): it verifies single-writer/multi-reader and the NCID
// containment invariant (every cached block has a home directory
// entry whose sharer set covers the holders).
func (d *Directory) CheckInvariants() {
	type holderInfo struct {
		holders uint64
		owners  []topo.Tile
	}
	blocks := make(map[cache.Addr]*holderInfo)
	for i, t := range d.tiles {
		tile := topo.Tile(i)
		t.l1.ForEachValid(func(a cache.Addr, l *cache.BareLine) {
			hi := blocks[a]
			if hi == nil {
				hi = &holderInfo{}
				blocks[a] = hi
			}
			hi.holders |= bit(tile)
			if l.State == dirModified || l.State == dirExclusive {
				hi.owners = append(hi.owners, tile)
			}
		})
	}
	for addr, hi := range blocks {
		if len(hi.owners) > 1 {
			panic(fmt.Sprintf("directory: block %#x has %d exclusive owners", addr, len(hi.owners)))
		}
		if len(hi.owners) == 1 && popcount(hi.holders) > 1 {
			panic(fmt.Sprintf("directory: block %#x exclusive at %d but %d holders",
				addr, hi.owners[0], popcount(hi.holders)))
		}
		home := d.ctx.HomeOf(addr)
		dl := d.tiles[home].dir.Peek(addr)
		if dl == nil {
			panic(fmt.Sprintf("directory: cached block %#x has no directory entry", addr))
		}
		if dl.Sharers&hi.holders != hi.holders {
			panic(fmt.Sprintf("directory: block %#x holders %#x not covered by sharers %#x",
				addr, hi.holders, dl.Sharers))
		}
		if len(hi.owners) == 1 && topo.Tile(dl.Owner) != hi.owners[0] {
			panic(fmt.Sprintf("directory: block %#x owner pointer %d, actual %d",
				addr, dl.Owner, hi.owners[0]))
		}
	}
}
