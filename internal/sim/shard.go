// Conservative parallel discrete-event simulation over a group of
// kernels ("lanes"), one per mesh shard.
//
// A ShardedKernel coordinates N ordinary Kernels so that one simulation
// can be partitioned across them while dispatching events in EXACTLY
// the order a single serial kernel would. RunParallel runs the lanes
// concurrently in conservative lookahead windows: all lanes execute
// [H, H+lookahead) independently, where H is the global minimum
// next-event time and lookahead is the minimum cross-shard latency
// (one mesh hop). Cross-shard messages go through Send into per-window
// outboxes and are exchanged at the barrier.
//
// Every schedule call carries a sequence stamp, and the serial
// kernel's dispatch order is precisely (time, schedule order). Calls
// made outside windows (phase seeding) take the next global stamp
// directly. Stamps issued inside a window are provisional; the barrier
// replays the window's dispatch logs in merged (time, seq) order and
// assigns the exact sequence numbers a serial run would have, patching
// pending events in place. That renumbering is what keeps RunParallel
// bit-identical to the serial kernel. It requires shard-affine events
// (a lane's handlers touch only that lane's state); the coherence
// engines satisfy this and check it on every per-tile state access
// (proto.Context), so full systems run on it.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// provBit marks a provisional sequence stamp issued inside a parallel
// window: bit 63 set, lane index in bits 48..62, a per-lane counter
// below. Provisional stamps are unique within a window and numerically
// larger than every final stamp, so a final-vs-provisional comparison
// already orders correctly (the provisional event was scheduled later).
const provBit = uint64(1) << 63

// schedKind distinguishes window-logged schedule calls.
type schedKind uint8

const (
	schedLocal   schedKind = iota // same-lane event (wheel or overflow; relabeled by scan)
	schedChannel                  // cross-shard outbox; idx = outbox position
	schedDefer                    // barrier-deferred operation; idx = defer-log position
)

// schedEnt records one schedule call made during a parallel window.
type schedEnt struct {
	prov uint64
	idx  int32
	kind schedKind
}

// dispatchEnt records one dispatch during a parallel window: the event's
// timestamp, its stamp at dispatch time (final if it was pending before
// the window, provisional if scheduled inside it), and the length of
// the schedule log when the handler started — entries from there to the
// next dispatch's mark are the calls this handler made, in order.
type dispatchEnt struct {
	at         Time
	seq        uint64
	schedStart int32
}

// outMsg is one cross-shard message awaiting exchange at the barrier.
type outMsg struct {
	at  Time
	to  int32
	val evPayload
}

// deferEnt is one barrier-deferred operation (see Kernel.Defer): its
// resolver, argument, and how many sequence stamps it reserves.
type deferEnt struct {
	fn   func(arg any, seqBase uint64)
	arg  any
	nseq int32
}

// windowLog is one lane's record of a parallel window.
type windowLog struct {
	sched    []schedEnt
	dispatch []dispatchEnt
	out      []outMsg
	defers   []deferEnt
	nprov    uint64 // provisional stamps issued this window
}

// deferRes is one resolved defer op awaiting execution: which lane
// logged it, its position in that lane's defer log, and the first of
// its reserved final stamps. Collected in merged replay order, executed
// in that order after relabeling.
type deferRes struct {
	lane    int32
	idx     int32
	seqBase uint64
}

// ShardedKernel coordinates a group of kernels as one logical
// discrete-event scheduler. Create one with NewSharded. Lane 0 is the
// hub: it carries the run's primary random stream (so construction-time
// Fork order matches a serial run) and hosts chip-global machinery.
type ShardedKernel struct {
	kernels   []*Kernel
	lookahead Time

	now Time
	seq uint64 // next global schedule stamp

	wlogs    []windowLog // per-lane window logs, reused across windows
	deferRes []deferRes  // barrier scratch: resolved defers in merged order

	// laneProf, when non-nil, records RunParallel's per-window lane
	// profile (see laneprof.go).
	laneProf *LaneProfile
}

// NewSharded builds a group of shards kernels. The hub (lane 0) is
// seeded with seed exactly as NewKernel(seed) would be, so code that
// forks construction-time random streams off the hub sees the same
// sequence as a serial run. Other lanes get derived seeds; their
// streams are untouched by the simulator and exist only so a lane is a
// complete Kernel. lookahead is the conservative horizon: the minimum
// latency of any cross-shard event, in cycles (one mesh hop for the
// CMP mesh). It must be >= 1.
func NewSharded(seed uint64, shards int, lookahead Time) *ShardedKernel {
	if shards < 1 {
		panic(fmt.Sprintf("sim: NewSharded with %d shards", shards))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: NewSharded with lookahead %d (must be >= 1)", lookahead))
	}
	sk := &ShardedKernel{
		kernels:   make([]*Kernel, shards),
		lookahead: lookahead,
		wlogs:     make([]windowLog, shards),
	}
	for i := range sk.kernels {
		s := seed
		if i > 0 {
			// splitmix-style derivation: distinct, deterministic, and never
			// colliding with the hub seed in practice. These streams are
			// never drawn from; any value would do.
			s = (seed + uint64(i)*0x9e3779b97f4a7c15) ^ 0xd1b54a32d192ed03
		}
		k := NewKernel(s)
		k.shard = sk
		k.shardIdx = int32(i)
		sk.kernels[i] = k
	}
	return sk
}

// stamp returns the next schedule stamp for a schedule call on lane k:
// the global counter normally, a provisional per-lane stamp while a
// parallel window is executing (the barrier assigns finals).
func (sk *ShardedKernel) stamp(k *Kernel) uint64 {
	if k.wlog != nil {
		k.wlog.nprov++
		return provBit | uint64(k.shardIdx)<<48 | k.wlog.nprov
	}
	s := sk.seq
	sk.seq++
	return s
}

// NumShards returns the number of lanes.
func (sk *ShardedKernel) NumShards() int { return len(sk.kernels) }

// Shard returns lane i's kernel. Events scheduled on it are stamped
// into the group's global order.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.kernels[i] }

// Hub returns lane 0, the kernel carrying chip-global machinery and the
// run's primary random stream.
func (sk *ShardedKernel) Hub() *Kernel { return sk.kernels[0] }

// Lookahead returns the conservative horizon in cycles.
func (sk *ShardedKernel) Lookahead() Time { return sk.lookahead }

// Now returns the global simulation time: the end of the last window
// (every lane's clock is aligned to it at each barrier, so lane Now()
// reads agree between windows).
func (sk *ShardedKernel) Now() Time { return sk.now }

// AdvanceTo jumps every lane's clock, and the group's, forward to t
// (Kernel.AdvanceTo). Call it only between windows.
func (sk *ShardedKernel) AdvanceTo(t Time) {
	if t <= sk.now {
		return
	}
	for _, k := range sk.kernels {
		k.AdvanceTo(t)
	}
	sk.now = t
}

// Pending returns the number of events waiting across all lanes.
func (sk *ShardedKernel) Pending() int {
	n := 0
	for _, k := range sk.kernels {
		n += k.Pending()
	}
	return n
}

// EventsRun returns the total events executed across all lanes.
func (sk *ShardedKernel) EventsRun() uint64 {
	var n uint64
	for _, k := range sk.kernels {
		n += k.events
	}
	return n
}

// Send schedules fn(arg) delay cycles from now on lane to, from a
// handler running on lane k inside a RunParallel window. Same-lane
// sends are plain AfterArg calls. A cross-lane message is captured in
// the sending lane's outbox and exchanged at the window barrier; it
// must respect the conservative horizon (delay >= lookahead), which
// guarantees it lands strictly after the window that sent it.
func (k *Kernel) Send(to int, delay Time, fn func(any), arg any) {
	sk := k.shard
	if sk == nil || int32(to) == k.shardIdx {
		k.AfterArg(delay, fn, arg)
		return
	}
	if delay < sk.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d with delay %d below lookahead %d",
			k.shardIdx, to, delay, sk.lookahead))
	}
	if k.wlog == nil {
		panic("sim: cross-shard Send outside a parallel window")
	}
	val := evPayload{tag: k.tag, argFn: fn, arg: arg, seq: sk.stamp(k)}
	k.wlog.out = append(k.wlog.out, outMsg{at: k.now + delay, to: int32(to), val: val})
	k.wlog.sched = append(k.wlog.sched,
		schedEnt{prov: val.seq, kind: schedChannel, idx: int32(len(k.wlog.out) - 1)})
}

// RunParallel executes events with lanes running concurrently in
// conservative lookahead windows, until the queues drain or the clock
// passes limit (limit 0 means no limit). After every barrier the
// group's pending events carry exactly the sequence stamps a serial
// kernel would have assigned, so a run split at any limit resumes
// bit-identically.
//
// It requires shard-affine events: a handler running on lane i may
// touch only lane-i state and communicate with other lanes via Send.
// The coherence engines meet that contract (core's Config.Parallel);
// the race detector and the engines' ownership check enforce it.
func (sk *ShardedKernel) RunParallel(limit Time) uint64 {
	start := sk.EventsRun()
	var wg sync.WaitGroup
	lp := sk.laneProf
	var evBase []uint64
	var laneDone []time.Time
	if lp != nil {
		evBase = make([]uint64, len(sk.kernels))
		laneDone = make([]time.Time, len(sk.kernels))
	}
	for {
		// H: the global safe horizon's base — no lane can produce work for
		// another below H+lookahead, so [H, H+lookahead) is safe to run
		// without hearing from anyone.
		h := Time(0)
		any := false
		for _, k := range sk.kernels {
			if t, ok := k.nextTime(); ok && (!any || t < h) {
				h, any = t, true
			}
		}
		if !any {
			break
		}
		if limit != 0 && h > limit {
			for _, k := range sk.kernels {
				k.AdvanceTo(limit)
			}
			sk.now = limit
			break
		}
		winEnd := h + sk.lookahead - 1
		if limit != 0 && winEnd > limit {
			winEnd = limit
		}
		for i, k := range sk.kernels {
			wl := &sk.wlogs[i]
			wl.sched = wl.sched[:0]
			wl.dispatch = wl.dispatch[:0]
			wl.out = wl.out[:0]
			wl.defers = wl.defers[:0]
			wl.nprov = 0
			k.wlog = wl
			if lp != nil {
				evBase[i] = k.events
			}
			wg.Add(1)
			go func(i int, k *Kernel) {
				defer wg.Done()
				k.runWindow(winEnd)
				if lp != nil {
					// Each lane writes only its own slot: no race.
					laneDone[i] = time.Now()
				}
			}(i, k)
		}
		wg.Wait()
		for _, k := range sk.kernels {
			k.wlog = nil
		}
		sk.barrier(winEnd)
		if lp != nil {
			barrierDone := time.Now()
			lp.TotalWindows++
			if lp.TotalWindows <= lp.Cap {
				for i, k := range sk.kernels {
					lp.Windows = append(lp.Windows, LaneWindow{
						Lane:   i,
						Start:  h,
						End:    winEnd,
						Events: k.events - evBase[i],
						Out:    len(sk.wlogs[i].out),
						WaitNS: barrierDone.Sub(laneDone[i]).Nanoseconds(),
					})
				}
			}
		}
		sk.now = winEnd
	}
	return sk.EventsRun() - start
}

// barrier reconciles a finished parallel window: it replays the lanes'
// dispatch logs in merged (time, seq) order, assigns every schedule
// call the exact global stamp a serial run would have issued,
// patches still-pending events in place, and exchanges the cross-shard
// outboxes.
func (sk *ShardedKernel) barrier(winEnd Time) {
	n := len(sk.kernels)
	heads := make([]int, n)
	sk.deferRes = sk.deferRes[:0]
	// provToFinal resolves a provisional stamp once its schedule call has
	// been replayed. A dispatch whose stamp is still unresolvable cannot
	// be the global minimum: its scheduling parent precedes it in merged
	// order and has not been consumed yet.
	provToFinal := make(map[uint64]uint64)
	for {
		best := -1
		var bestKey evKey
		for i := range sk.kernels {
			wl := &sk.wlogs[i]
			if heads[i] >= len(wl.dispatch) {
				continue
			}
			d := wl.dispatch[heads[i]]
			seq := d.seq
			if seq >= provBit {
				f, ok := provToFinal[seq]
				if !ok {
					continue
				}
				seq = f
			}
			key := evKey{at: d.at, seq: seq}
			if best < 0 || key.before(bestKey) {
				best, bestKey = i, key
			}
		}
		if best < 0 {
			break
		}
		wl := &sk.wlogs[best]
		d := wl.dispatch[heads[best]]
		end := int32(len(wl.sched))
		if heads[best]+1 < len(wl.dispatch) {
			end = wl.dispatch[heads[best]+1].schedStart
		}
		for j := d.schedStart; j < end; j++ {
			se := wl.sched[j]
			if se.kind == schedDefer {
				// A deferred operation reserves its stamps here, at its exact
				// position in merged schedule order, and executes after the
				// relabel pass below (it may splice against final stamps and
				// needs every lane's clock at the window end).
				de := &wl.defers[se.idx]
				sk.deferRes = append(sk.deferRes,
					deferRes{lane: int32(best), idx: se.idx, seqBase: sk.seq})
				sk.seq += uint64(de.nseq)
				continue
			}
			f := sk.seq
			sk.seq++
			provToFinal[se.prov] = f
			if se.kind == schedChannel {
				wl.out[se.idx].val.seq = f
			}
		}
		heads[best]++
	}
	for i := range sk.kernels {
		if heads[i] < len(sk.wlogs[i].dispatch) {
			panic("sim: parallel barrier could not resolve dispatch order (non-shard-affine events?)")
		}
	}
	// Relabel pending provisional stamps by scanning the lane's arena
	// and overflow heap (a mid-window clock advance may have migrated a
	// provisional entry into the wheel, so both structures are scanned;
	// freed arena nodes carry a zeroed payload and are skipped). The
	// relabeling is order-preserving — per-lane provisional order equals
	// final-assignment order, and every new final exceeds every
	// pre-window stamp — so slot FIFO lists stay sorted by stamp and the
	// heap invariant survives a pure relabel.
	for i, k := range sk.kernels {
		if sk.wlogs[i].nprov == 0 {
			k.AdvanceTo(winEnd)
			continue
		}
		for j := range k.nodes {
			if s := k.nodes[j].val.seq; s >= provBit {
				f, ok := provToFinal[s]
				if !ok {
					panic("sim: unresolved provisional stamp in wheel")
				}
				k.nodes[j].val.seq = f
			}
		}
		for j := range k.ofVals {
			if s := k.ofVals[j].seq; s >= provBit {
				f, ok := provToFinal[s]
				if !ok {
					panic("sim: unresolved provisional stamp in overflow heap")
				}
				k.ofVals[j].seq = f
				k.ofKeys[j].seq = f
			}
		}
		k.AdvanceTo(winEnd)
	}
	// Execute deferred operations in merged serial order. They run after
	// the relabel pass — every lane's clock sits at the window end and
	// all pending stamps are final, so a resolver's InjectResolved
	// splices correctly — and on this single goroutine, so mutating
	// shared state (link reservations, the memory random stream) is
	// race-free and ordered exactly as a serial run would have ordered
	// it. Order against the outbox exchange below is immaterial:
	// both splice explicit final stamps.
	for i := range sk.deferRes {
		r := &sk.deferRes[i]
		de := &sk.wlogs[r.lane].defers[r.idx]
		de.fn(de.arg, r.seqBase)
		de.fn, de.arg = nil, nil // do not retain across windows
	}
	// Exchange outboxes. Conservative lookahead puts every arrival
	// strictly past winEnd, and insertArrival splices by stamp, so
	// arrival order across lanes is immaterial.
	for i := range sk.kernels {
		for _, m := range sk.wlogs[i].out {
			if m.val.seq >= provBit {
				panic("sim: unresolved provisional stamp in outbox")
			}
			sk.kernels[m.to].insertArrival(m.at, m.val)
		}
	}
}
