package proto

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// debugger is the view of an engine's per-tile state that the debug
// formatters and the quiescence check read; engineBase provides it for
// every line payload. All transient per-block state (stall queues,
// busy/blocked flags, recall marks) lives in each tile's transaction
// table.
type debugger interface {
	formatBlock(addr cache.Addr) string
	formatStalls() string
	quiescent() error
}

// FormatBlockState returns the global state of one block: every L1
// copy, the home L2 line and pointer caches, and the per-tile stall
// state (debug aid). It reads the arrays without touching their
// replacement state, so a dump leaves the run unchanged.
func FormatBlockState(e Engine, addr cache.Addr) string {
	if d, ok := e.(debugger); ok {
		return d.formatBlock(addr)
	}
	return fmt.Sprintf("block %#x: unknown engine %T", addr, e)
}

func (eb *engineBase[P]) formatBlock(addr cache.Addr) string {
	home := eb.ctx.HomeOf(addr)
	var b strings.Builder
	fmt.Fprintf(&b, "block %#x home=%d\n", addr, home)
	for i, t := range eb.tiles {
		if l := t.l1.Peek(addr); l != nil {
			fmt.Fprintf(&b, "  L1[%d]: %+v\n", i, *l)
		}
		if me, ok := t.mshr.Lookup(addr); ok {
			fmt.Fprintf(&b, "  MSHR[%d]: %+v\n", i, *me)
		}
		if l1, _ := t.queueLens(addr); l1 > 0 || t.blocked(addr) {
			fmt.Fprintf(&b, "  tile %d: pendingL1=%d blocked=%v\n", i, l1, t.blocked(addr))
		}
	}
	th := eb.tiles[home]
	if th.dir != nil {
		if dl := th.dir.Peek(addr); dl != nil {
			fmt.Fprintf(&b, "  dir[%d]: owner=%d sharers=%#x\n", home, dl.Owner, dl.Sharers)
		} else {
			fmt.Fprintf(&b, "  dir[%d]: no entry\n", home)
		}
	}
	if l := th.l2.Peek(addr); l != nil {
		fmt.Fprintf(&b, "  L2[%d]: %+v\n", home, *l)
	} else {
		fmt.Fprintf(&b, "  L2[%d]: no line\n", home)
	}
	if th.l2c != nil {
		if ptr, ok := th.l2c.Peek(addr); ok {
			fmt.Fprintf(&b, "  L2C$[%d] -> %d\n", home, ptr)
		}
	}
	_, homeq := th.queueLens(addr)
	fmt.Fprintf(&b, "  homeBusy=%v pendingHome=%d recall=%v\n", th.homeBusy(addr), homeq, th.recallMarked(addr))
	return b.String()
}

// FormatStalls returns every outstanding MSHR entry and stall queue of
// the engine (debug aid for hangs).
func FormatStalls(e Engine) string {
	if d, ok := e.(debugger); ok {
		return d.formatStalls()
	}
	return fmt.Sprintf("unknown engine %T", e)
}

func (eb *engineBase[P]) formatStalls() string {
	var b strings.Builder
	for i, t := range eb.tiles {
		if n := t.mshr.Outstanding(); n > 0 {
			fmt.Fprintf(&b, "tile %d: %d outstanding\n", i, n)
			for _, me := range t.mshr.Entries() {
				fmt.Fprintf(&b, "  MSHR %#x: %+v\n", me.Addr, *me)
			}
		}
		for _, r := range t.tx.records() {
			l1, home := t.queueLens(r.addr)
			if l1 > 0 {
				fmt.Fprintf(&b, "tile %d pendingL1[%#x]: %d (blocked=%v)\n", i, r.addr, l1, r.flags&txBlocked != 0)
			}
			if home > 0 {
				fmt.Fprintf(&b, "tile %d pendingHome[%#x]: %d (busy=%v recall=%v)\n", i, r.addr, home,
					r.flags&txHomeBusy != 0, r.flags&txRecall != 0)
			}
			if r.flags&txHomeBusy != 0 {
				fmt.Fprintf(&b, "tile %d homeBusy[%#x]\n", i, r.addr)
			}
			if r.flags&txBlocked != 0 {
				fmt.Fprintf(&b, "tile %d blocked[%#x]\n", i, r.addr)
			}
			if r.flags&txRecall != 0 {
				fmt.Fprintf(&b, "tile %d recall[%#x]\n", i, r.addr)
			}
		}
	}
	return b.String()
}

// CheckQuiescent reports transient coherence state that survived a
// drained kernel: a live transaction record or an outstanding MSHR
// entry on any tile. Once the queue is empty every transaction has
// completed, so such a record is hidden state that the next phase
// would silently inherit.
func CheckQuiescent(e Engine) error {
	if d, ok := e.(debugger); ok {
		return d.quiescent()
	}
	return fmt.Errorf("proto: unknown engine %T", e)
}

func (eb *engineBase[P]) quiescent() error {
	for i, t := range eb.tiles {
		if t.tx.count != 0 {
			r := t.tx.records()[0]
			l1, home := t.queueLens(r.addr)
			return fmt.Errorf("proto: %s tile %d not quiescent: %d live transaction records (first: block %#x flags=%#x l1q=%d homeq=%d)",
				eb.name, i, t.tx.count, r.addr, r.flags, l1, home)
		}
		if n := t.mshr.Outstanding(); n > 0 {
			return fmt.Errorf("proto: %s tile %d not quiescent: %d misses in flight", eb.name, i, n)
		}
	}
	return nil
}

// StallProbe returns a sim.Watchdog probe that reports a stalled
// transaction: any MSHR entry older than bound cycles. The report
// names the oldest such entry and dumps the offending block's global
// state. Home-queued requests are covered transitively — every
// request stalled at a home belongs to some requestor's MSHR entry.
func StallProbe(e Engine, k *sim.Kernel, bound sim.Time) func() string {
	return func() string {
		now := uint64(k.Now())
		var worst *cache.MSHREntry
		var worstTile topo.Tile
		e.ForEachPending(func(tile topo.Tile, me *cache.MSHREntry) {
			if now-me.IssuedAt < uint64(bound) {
				return
			}
			// Deterministic choice under map iteration: oldest first,
			// ties by (tile, addr).
			if worst == nil || me.IssuedAt < worst.IssuedAt ||
				(me.IssuedAt == worst.IssuedAt &&
					(tile < worstTile || (tile == worstTile && me.Addr < worst.Addr))) {
				worst, worstTile = me, tile
			}
		})
		if worst == nil {
			return ""
		}
		return fmt.Sprintf("%s: transaction stalled: tile %d block %#x pending since t=%d (now %d, bound %d)\n%s",
			e.Name(), worstTile, worst.Addr, worst.IssuedAt, now, bound,
			FormatBlockState(e, worst.Addr))
	}
}
