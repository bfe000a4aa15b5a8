// Package sim provides the discrete-event simulation kernel used by the
// CMP simulator: a virtual clock, a deterministic event queue, and a
// reproducible pseudo-random source.
//
// Events scheduled for the same cycle execute in scheduling order, which
// makes whole-system runs bit-for-bit reproducible for a given seed.
//
// The event queue is a timing wheel backed by a small overflow heap.
// Nearly every delay in the simulator is short and bounded — mesh hops,
// cache pipelines, DRAM round-trips (~316 cycles), retry backoffs — so
// events land in a fixed ring of wheelSize one-cycle slots, each an
// intrusive FIFO list over a pooled node arena. Scheduling is O(1):
// index the slot, append to its list, set an occupancy bit. Dispatch
// scans the occupancy bitmap from the current cycle (64 slots per
// word). FIFO order within a slot preserves the (time, sequence) total
// order because a slot holds at most one distinct timestamp at a time.
// The rare long-delay events (the watchdog's probes) go to a 4-ary
// min-heap and migrate into the wheel as the clock approaches
// them — migrated events always precede, in scheduling order, any event
// later pushed directly for the same cycle, so ordering is preserved
// exactly. The node arena free list makes steady-state scheduling and
// dispatch allocation-free.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is the simulation clock, in processor cycles.
type Time uint64

// Event is a unit of scheduled work.
type Event func()

// wheelSize is the horizon of the timing wheel in cycles (power of
// two). Events scheduled less than wheelSize cycles ahead go to the
// wheel; anything further goes to the overflow heap. 1024 covers every
// hot-path delay in the simulator (DRAM is ~316 cycles) with room to
// spare.
const (
	wheelSize = 1024
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64
)

// evKey is the ordering half of an overflow-heap entry: earlier time
// first, scheduling order (seq) breaking ties so same-cycle events are
// FIFO.
type evKey struct {
	at  Time
	seq uint64
}

// evPayload is the dispatch half of a pending event. argFn nil means
// the closure form (At/After) and arg holds the Event; otherwise
// argFn+arg is the non-capturing fast path (AtArg/AfterArg). tag is
// the causal context (see Kernel.Tag) captured at scheduling time.
// seq is the global scheduling-order stamp a sharded run assigns (zero
// and unused when the kernel runs standalone): the RunParallel barrier
// orders same-cycle events across shards by ascending seq, which
// reproduces the standalone kernel's FIFO-within-slot total order.
type evPayload struct {
	tag   uint64
	seq   uint64
	argFn func(any)
	arg   any
}

// before reports whether k fires before o.
func (k evKey) before(o evKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// evNode is one pending event in the wheel's node arena, linked into a
// per-slot FIFO list (or the free list) by arena index.
type evNode struct {
	next int32 // arena index of next node in slot/free list, -1 = none
	val  evPayload
}

// wheelSlot is one cycle's FIFO list. A slot holds events for at most
// one distinct timestamp at a time (all pending wheel events lie within
// [now, now+wheelSize), so two timestamps in the same slot would be a
// full wheel-turn apart). at records which one.
type wheelSlot struct {
	at   Time
	head int32
	tail int32
}

// heapArity is the branching factor of the overflow heap. Quaternary
// rather than binary: sift-down does ~half the levels, and the four
// children of node i (4i+1..4i+4) sit adjacent in memory.
const heapArity = 4

// Kernel is a discrete-event scheduler. The zero value is not usable;
// create one with NewKernel.
type Kernel struct {
	now Time
	seq uint64
	tag uint64 // current causal tag (see Tag)

	// shard is non-nil when this kernel is one lane of a ShardedKernel:
	// every schedule is then stamped with a global sequence number.
	// shardIdx is this kernel's lane. wlog is non-nil only while a
	// parallel window is executing on this lane: schedule and dispatch
	// append to it so the barrier can reconstruct the exact serial order
	// (see shard.go).
	shard    *ShardedKernel
	shardIdx int32
	wlog     *windowLog

	slots   []wheelSlot      // wheelSize one-cycle FIFO slots
	occ     [occWords]uint64 // occupancy bitmap over slots
	nodes   []evNode         // arena backing the slot lists
	free    int32            // head of the node free list, -1 = none
	inWheel int              // events currently in the wheel

	ofKeys []evKey     // overflow: 4-ary min-heap by (at, seq)
	ofVals []evPayload // overflow payloads, parallel to ofKeys

	rng    *Rand
	events uint64 // total events executed
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed uint64) *Kernel {
	k := &Kernel{rng: NewRand(seed), free: -1}
	k.slots = make([]wheelSlot, wheelSize)
	for i := range k.slots {
		k.slots[i].head, k.slots[i].tail = -1, -1
	}
	return k
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *Rand { return k.rng }

// EventsRun returns the number of events executed so far (this lane's
// share on a lane of a sharded group; ShardedKernel.EventsRun sums
// them).
func (k *Kernel) EventsRun() uint64 { return k.events }

// Tag returns the current causal tag: an opaque value that every
// scheduled event inherits at scheduling time and that is restored
// when the event dispatches. Because all cross-component interaction
// in the simulator flows through scheduled events (mesh deliveries,
// stall wakeups, retries), a tag set at the root of a transaction
// follows its entire causal tree with no per-site plumbing. The
// telemetry layer uses it to carry coherence-span IDs through the
// mesh; tag 0 means "untagged". Tagging is always on and costs one
// 8-byte copy per schedule and dispatch — it never changes event
// order, so runs are bit-identical whether or not anyone reads tags.
// Each lane of a sharded group keeps its own current tag; a tag crosses
// lanes inside the payload of the event that carries it.
func (k *Kernel) Tag() uint64 { return k.tag }

// SetTag sets the current causal tag. Events scheduled from now on
// (until the next dispatch overwrites it) carry this tag.
func (k *Kernel) SetTag(t uint64) { k.tag = t }

// Pending returns the number of events waiting in the queue (this
// lane's queue on a lane of a sharded group; ShardedKernel.Pending
// sums them).
func (k *Kernel) Pending() int { return k.inWheel + len(k.ofKeys) }

// newNode pops a node from the free list or grows the arena.
func (k *Kernel) newNode() int32 {
	if n := k.free; n >= 0 {
		k.free = k.nodes[n].next
		return n
	}
	k.nodes = append(k.nodes, evNode{})
	return int32(len(k.nodes) - 1)
}

// wheelAppend links a payload at the tail of the slot for time at,
// which must lie within [now, now+wheelSize). The payload's fields come
// separately and are stored one by one: a 40-byte struct passed by
// value is spilled to the stack and reloaded as vector moves, and that
// store-to-load forwarding stall dominated the scheduling cost.
func (k *Kernel) wheelAppend(at Time, tag, seq uint64, argFn func(any), arg any) {
	n := k.newNode()
	nd := &k.nodes[n]
	nd.next = -1
	nd.val.tag, nd.val.seq, nd.val.argFn, nd.val.arg = tag, seq, argFn, arg
	s := &k.slots[int(at)&wheelMask]
	if s.head < 0 {
		s.at = at
		s.head, s.tail = n, n
		k.occ[(int(at)&wheelMask)>>6] |= 1 << (uint(at) & 63)
	} else {
		if s.at != at {
			k.slotAliasPanic(s.at, at)
		}
		k.nodes[s.tail].next = n
		s.tail = n
	}
	k.inWheel++
}

// slotAliasPanic reports two distinct timestamps landing in one wheel
// slot: the [now, now+wheelSize) invariant broke somewhere, and FIFO
// dispatch would silently misorder them. Kept out of wheelAppend so the
// Sprintf machinery does not bloat the hot path's frame.
//
//go:noinline
func (k *Kernel) slotAliasPanic(have, appending Time) {
	panic(fmt.Sprintf("sim: wheel slot aliasing: slot holds t=%d, appending t=%d (now=%d)", have, appending, k.now))
}

// schedule routes an event, carrying the current causal tag, to the
// wheel or the overflow heap.
func (k *Kernel) schedule(at Time, argFn func(any), arg any) {
	if k.shard != nil {
		k.scheduleSharded(at, evPayload{tag: k.tag, argFn: argFn, arg: arg})
		return
	}
	if at < k.now+wheelSize {
		k.wheelAppend(at, k.tag, 0, argFn, arg)
		return
	}
	k.seq++
	k.ofPush(evKey{at: at, seq: k.seq}, evPayload{tag: k.tag, argFn: argFn, arg: arg})
}

// scheduleSharded is schedule for a kernel lane of a ShardedKernel:
// the payload is stamped with the global scheduling sequence (the
// overflow heap key reuses the stamp, so heap order equals global
// order), and during a parallel window the stamp is provisional and
// the call is recorded in the window log for barrier renumbering.
func (k *Kernel) scheduleSharded(at Time, val evPayload) {
	val.seq = k.shard.stamp(k)
	if k.wlog != nil {
		k.wlog.sched = append(k.wlog.sched, schedEnt{prov: val.seq, kind: schedLocal})
	}
	if at < k.now+wheelSize {
		k.wheelAppend(at, val.tag, val.seq, val.argFn, val.arg)
		return
	}
	k.ofPush(evKey{at: at, seq: val.seq}, val)
}

// migrate drains overflow events that have come within the wheel
// horizon [_, limit+wheelSize) into their slots. Popped in (at, seq)
// order, they append in FIFO scheduling order; any event pushed
// directly to the same slot afterwards was necessarily scheduled later,
// so the global dispatch order is unchanged.
func (k *Kernel) migrate(limit Time) {
	for len(k.ofKeys) > 0 && k.ofKeys[0].at < limit+wheelSize {
		key, val := k.ofPop()
		k.wheelAppend(key.at, val.tag, val.seq, val.argFn, val.arg)
	}
}

// nextSlot returns the slot index holding the earliest pending wheel
// event: the occupancy bitmap is scanned circularly starting at the
// current cycle's slot. All wheel events lie in [now, now+wheelSize),
// so circular distance from now's slot equals firing order.
func (k *Kernel) nextSlot() int {
	start := int(k.now) & wheelMask
	w, bit := start>>6, uint(start)&63
	if word := k.occ[w] >> bit; word != 0 {
		return start + bits.TrailingZeros64(word)
	}
	for i := 1; i <= occWords; i++ {
		idx := (w + i) & (occWords - 1)
		if word := k.occ[idx]; word != 0 {
			return idx<<6 + bits.TrailingZeros64(word)
		}
	}
	panic("sim: nextSlot on empty wheel")
}

// ofPush appends an entry to the overflow heap and sifts it up. The
// sift moves a hole instead of swapping, so each level copies one
// entry, not three; only the keys are read for comparisons.
func (k *Kernel) ofPush(key evKey, val evPayload) {
	hk := append(k.ofKeys, evKey{})
	hv := append(k.ofVals, evPayload{})
	i := len(hk) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !key.before(hk[p]) {
			break
		}
		hk[i], hv[i] = hk[p], hv[p]
		i = p
	}
	hk[i], hv[i] = key, val
	k.ofKeys, k.ofVals = hk, hv
}

// ofPop removes and returns the minimum overflow entry, sifting the
// former tail entry down into place. The vacated tail slot is zeroed so
// the heap's spare capacity does not retain closures or boxed
// arguments.
func (k *Kernel) ofPop() (evKey, evPayload) {
	hk, hv := k.ofKeys, k.ofVals
	topKey := hk[0]
	topVal := hv[0]
	n := len(hk) - 1
	lastKey, lastVal := hk[n], hv[n]
	hv[n] = evPayload{}
	hk, hv = hk[:n], hv[:n]
	k.ofKeys, k.ofVals = hk, hv
	if n == 0 {
		return topKey, topVal
	}
	i := 0
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if hk[j].before(hk[min]) {
				min = j
			}
		}
		if !hk[min].before(lastKey) {
			break
		}
		hk[i], hv[i] = hk[min], hv[min]
		i = min
	}
	hk[i], hv[i] = lastKey, lastVal
	return topKey, topVal
}

// checkTime panics on scheduling in the past: it would silently
// corrupt causality.
func (k *Kernel) checkTime(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %d, before now=%d", t, k.now))
	}
}

// At schedules ev to run at absolute time t. Scheduling in the past
// (t < Now) panics. The closure rides in the arg slot (a func value
// boxes into an interface without allocating); argFn nil marks the
// form for dispatch.
func (k *Kernel) At(t Time, ev Event) {
	k.checkTime(t)
	k.schedule(t, nil, ev)
}

// After schedules ev to run delay cycles from now.
func (k *Kernel) After(delay Time, ev Event) {
	k.At(k.now+delay, ev)
}

// AtArg schedules fn(arg) to run at absolute time t. It is the
// allocation-free alternative to At for hot senders: fn can be a
// long-lived non-capturing function, so no closure is created per
// event, and small integer args (e.g. tile ids) box without
// allocating. Ordering relative to At events follows scheduling order,
// exactly as if the call were At(t, func() { fn(arg) }).
func (k *Kernel) AtArg(t Time, fn func(any), arg any) {
	k.checkTime(t)
	k.schedule(t, fn, arg)
}

// AfterArg schedules fn(arg) to run delay cycles from now.
func (k *Kernel) AfterArg(delay Time, fn func(any), arg any) {
	k.AtArg(k.now+delay, fn, arg)
}

// ForEachPending calls fn for every pending event, the wheel's then the
// overflow heap's, in no particular order. argFn is nil for an event
// scheduled in the closure form (At/After), whose Event is then arg. fn
// must not schedule or dispatch events.
func (k *Kernel) ForEachPending(fn func(at Time, argFn func(any), arg any)) {
	for i := range k.slots {
		for n := k.slots[i].head; n >= 0; n = k.nodes[n].next {
			fn(k.slots[i].at, k.nodes[n].val.argFn, k.nodes[n].val.arg)
		}
	}
	for i, key := range k.ofKeys {
		fn(key.at, k.ofVals[i].argFn, k.ofVals[i].arg)
	}
}

// nextTime returns the timestamp of the earliest pending event.
func (k *Kernel) nextTime() (Time, bool) {
	if k.inWheel > 0 {
		return k.slots[k.nextSlot()].at, true
	}
	if len(k.ofKeys) > 0 {
		return k.ofKeys[0].at, true
	}
	return 0, false
}

// AdvanceTo jumps the clock forward to t without dispatching anything;
// a t at or before Now is a no-op. RunParallel aligns every lane to
// each window's end with it, so lane Now() reads agree between windows,
// and a run phase ends with it at its last retirement, which may lie
// past the last event (an L1 hit retires L1HitLatency cycles after the
// event that issued it). Moving the wheel horizon forward pulls newly
// in-range overflow events into their slots, exactly as Run(limit)
// does on a jump — skipping that was the PR 5 out-of-order bug.
func (k *Kernel) AdvanceTo(t Time) {
	if t <= k.now {
		return
	}
	k.now = t
	if len(k.ofKeys) > 0 && k.ofKeys[0].at < t+wheelSize {
		k.migrate(t)
	}
}

// Deferring reports whether a parallel window is currently executing
// on this lane. Handlers that would touch state owned by another lane
// (mesh link reservations, the memory controller's random stream) test
// it and route the touch through Defer instead, so the mutation happens
// at the barrier in exact merged serial order.
func (k *Kernel) Deferring() bool { return k.wlog != nil }

// Defer logs a barrier-deferred operation from inside a parallel
// window. The operation reserves nseq sequence stamps at its position
// in the lane's schedule order; at the barrier, after dispatch replay
// has assigned final stamps, fn(arg, seqBase) runs on the coordinating
// goroutine with seqBase the first of its nseq final stamps — exactly
// the stamps a serial run would have assigned at this call site. The
// resolver may mutate shared state and inject events with
// InjectResolved; it must schedule nothing through the normal API.
// Panics outside a parallel window: the serial kernel runs the
// operation inline instead (test Deferring first).
func (k *Kernel) Defer(nseq int, fn func(arg any, seqBase uint64), arg any) {
	wl := k.wlog
	if wl == nil {
		panic("sim: Defer outside a parallel window")
	}
	wl.defers = append(wl.defers, deferEnt{fn: fn, arg: arg, nseq: int32(nseq)})
	wl.sched = append(wl.sched,
		schedEnt{kind: schedDefer, idx: int32(len(wl.defers) - 1)})
}

// InjectResolved splices fn(arg) into this lane's queue at absolute
// time at, carrying an explicit final sequence stamp and causal tag.
// Only barrier-deferred resolvers call it: the stamp was reserved by
// Defer, so the payload lands in exact serial order without consuming a
// new stamp. at must lie strictly past the lane's clock (the
// conservative horizon guarantees this for any cross-tile latency).
func (k *Kernel) InjectResolved(at Time, seq, tag uint64, fn func(any), arg any) {
	if at <= k.now {
		panic(fmt.Sprintf("sim: InjectResolved at %d, not past now=%d", at, k.now))
	}
	k.insertArrival(at, evPayload{tag: tag, seq: seq, argFn: fn, arg: arg})
}

// insertArrival splices an already-stamped payload (a cross-shard
// channel message) into the queue in (at, seq) position rather than at
// the slot tail: the message was scheduled mid-window on another lane,
// so events this lane scheduled later in its window may carry larger
// stamps yet already sit in the slot. Conservative lookahead guarantees
// at > now (arrivals land strictly past the window that sent them).
func (k *Kernel) insertArrival(at Time, val evPayload) {
	if at >= k.now+wheelSize {
		k.ofPush(evKey{at: at, seq: val.seq}, val)
		return
	}
	s := &k.slots[int(at)&wheelMask]
	if s.head < 0 {
		k.wheelAppend(at, val.tag, val.seq, val.argFn, val.arg)
		return
	}
	if s.at != at {
		k.slotAliasPanic(s.at, at)
	}
	n := k.newNode()
	nd := &k.nodes[n]
	nd.val = val
	if k.nodes[s.head].val.seq > val.seq {
		nd.next = s.head
		s.head = n
		k.inWheel++
		return
	}
	p := s.head
	for {
		next := k.nodes[p].next
		if next < 0 || k.nodes[next].val.seq > val.seq {
			break
		}
		p = next
	}
	nd.next = k.nodes[p].next
	k.nodes[p].next = n
	if nd.next < 0 {
		s.tail = n
	}
	k.inWheel++
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	if k.inWheel == 0 {
		if len(k.ofKeys) == 0 {
			return false
		}
		// The wheel drained with only far-future events left: jump the
		// clock to the earliest one so the wheel horizon reaches it,
		// then pull everything now in range. The jump is sound — the
		// next dispatch is at that timestamp anyway.
		k.now = k.ofKeys[0].at
		k.migrate(k.now)
	}
	si := k.nextSlot()
	s := &k.slots[si]
	at := s.at
	n := s.head
	nd := &k.nodes[n]
	s.head = nd.next
	if s.head < 0 {
		s.tail = -1
		k.occ[si>>6] &^= 1 << (uint(si) & 63)
	}
	k.inWheel--
	// Read and clear the node's fields in place (copying the payload
	// out whole costs a store-forwarding stall, see wheelAppend); the
	// clear keeps the arena from retaining closures and args.
	argFn, arg := nd.val.argFn, nd.val.arg
	k.tag = nd.val.tag
	if k.wlog != nil {
		k.wlog.dispatch = append(k.wlog.dispatch,
			dispatchEnt{at: at, seq: nd.val.seq, schedStart: int32(len(k.wlog.sched))})
	}
	nd.val.argFn, nd.val.arg = nil, nil
	nd.next = k.free
	k.free = n
	k.now = at
	k.events++
	// Advancing the clock moved the wheel horizon forward: pull any
	// overflow events now in range before dispatching, so events the
	// handler schedules (which come later in scheduling order) land
	// behind them in their slots.
	if len(k.ofKeys) > 0 && k.ofKeys[0].at < at+wheelSize {
		k.migrate(at)
	}
	if argFn == nil {
		arg.(Event)()
	} else {
		argFn(arg)
	}
	return true
}

// Run executes events until the queue drains or the clock passes limit
// (limit 0 means no limit). It returns the number of events executed.
func (k *Kernel) Run(limit Time) uint64 {
	start := k.events
	if limit == 0 {
		for k.Step() {
		}
		return k.events - start
	}
	for {
		t, ok := k.nextTime()
		if !ok {
			break
		}
		if t > limit {
			// Jumping the clock moves the wheel horizon forward, so any
			// overflow events that came within range must migrate into
			// their slots now. Otherwise an event scheduled after Run
			// returns could land in the wheel ahead of an earlier
			// unmigrated overflow event and dispatch out of order.
			k.now = limit
			k.migrate(limit)
			break
		}
		k.Step()
	}
	return k.events - start
}

// runWindow executes all events with timestamps <= limit and leaves the
// clock at limit. It is Run(limit) without the limit-0 drain sentinel
// (a parallel window can legitimately end at cycle 0) and with the
// final clock always aligned to the window end, even when the queue
// drains early — so every lane of a parallel window rejoins the barrier
// at the same time.
func (k *Kernel) runWindow(limit Time) {
	for {
		t, ok := k.nextTime()
		if !ok || t > limit {
			k.AdvanceTo(limit)
			return
		}
		k.Step()
	}
}

// RunUntil executes events while cond returns true and events remain.
// It returns the number of events executed.
func (k *Kernel) RunUntil(cond func() bool) uint64 {
	start := k.events
	for k.Pending() > 0 && !cond() {
		k.Step()
	}
	return k.events - start
}
