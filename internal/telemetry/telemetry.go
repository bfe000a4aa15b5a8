// Package telemetry is the simulator's production-grade observability
// layer: causal coherence-transaction tracing and epoch time-series
// sampling.
//
// Tracing is distributed-tracing for the on-chip world: every L1 miss
// opens a span, and the span's ID rides the event kernel's causal tag
// (sim.Kernel.Tag) through every message the transaction sends — mesh
// deliveries, stall wakeups and NACK retries all inherit the tag at
// scheduling time, so the full request → home/ordering point →
// owner/provider → ack → unblock chain lands in one span with cycle
// timestamps, with zero per-message plumbing in the protocol engines.
// Spans export as Chrome/Perfetto trace-event JSON (browsable in
// ui.perfetto.dev) and feed an in-process analyzer that reports the
// hop-count, indirection and retry distributions the paper's 2-hop vs
// 3-hop argument is about.
//
// Everything here is observation-only: neither the tracer nor the
// epoch sampler schedules an event (the run loop calls the sampler
// between kernel windows), so a traced or sampled run's event stream
// is bit-identical to a plain one.
package telemetry

import (
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Hop is one network message recorded into a span.
type Hop struct {
	Src    topo.Tile `json:"src"`
	Dst    topo.Tile `json:"dst"`
	Flits  int       `json:"flits"`
	Depart sim.Time  `json:"depart"`
	Arrive sim.Time  `json:"arrive"`
	Links  int       `json:"links"` // mesh links traversed (0 = same tile)
	// Bcast marks a spanning-tree broadcast (Links = tree edges,
	// Arrive = farthest destination).
	Bcast bool `json:"bcast,omitempty"`
	// Late marks traffic recorded after the span's reference retired
	// (trailing writebacks, directory updates, unblocks).
	Late bool `json:"late,omitempty"`
}

// Event is a named protocol step within a span (fill, eviction,
// recall, retry, ...). Addr names the block the step acted on, which
// is not always the span's own: an eviction a miss causes lands in
// that miss's span, so a block's history reads across spans.
type Event struct {
	At   sim.Time  `json:"at"`
	Name string    `json:"name"`
	Tile topo.Tile `json:"tile"`
	Addr uint64    `json:"addr"`
}

// Span is the full causal record of one L1 miss.
type Span struct {
	ID    uint64    `json:"id"`
	Tile  topo.Tile `json:"tile"`
	Addr  uint64    `json:"addr"`
	Write bool      `json:"write"`
	Start sim.Time  `json:"start"`
	End   sim.Time  `json:"end"`
	Class string    `json:"class"` // miss class name, set at close
	// Dropped marks a miss whose fill raced an invalidation and was
	// discarded at retire (the reference still completed).
	Dropped bool    `json:"dropped,omitempty"`
	Retries int     `json:"retries,omitempty"`
	Hops    []Hop   `json:"hops"`
	Events  []Event `json:"events,omitempty"`
	closed  bool
}

// Closed reports whether the span's reference has retired.
func (s *Span) Closed() bool { return s.closed }

// Messages returns the number of network messages the transaction
// sent before retiring (late traffic excluded).
func (s *Span) Messages() int {
	n := 0
	for i := range s.Hops {
		if !s.Hops[i].Late {
			n++
		}
	}
	return n
}

// ChainHops returns the length of the causal message chain from the
// requestor to the first data-carrying message arriving back at the
// requestor — the quantity behind the paper's "2-hop vs 3-hop"
// indirection argument. A directory miss served through the home and
// an owner is a 3-chain (request → forward → data); a DiCo miss whose
// prediction hit the supplier is a 2-chain (request → data). The chain
// is reconstructed causally: a hop extends the deepest earlier hop
// that ends where it starts. Misses completed without a data return
// (e.g. upgrade resolved by acks) report the chain to the last
// pre-retire message arriving at the requestor, and 0 when the span
// recorded no such hop.
func (s *Span) ChainHops(dataFlits int) int {
	// depth[i] = chain length ending with hop i.
	depth := make([]int, len(s.Hops))
	chain := func(i int) int {
		h := &s.Hops[i]
		best := 0
		for j := range s.Hops {
			if j == i || s.Hops[j].Late {
				continue
			}
			if s.Hops[j].Dst == h.Src && s.Hops[j].Arrive <= h.Depart && depth[j] > best {
				best = depth[j]
			}
		}
		return best + 1
	}
	// Hops are recorded in departure order, so one forward pass fixes
	// every depth (a hop's predecessors all departed earlier).
	for i := range s.Hops {
		if s.Hops[i].Late {
			continue
		}
		depth[i] = chain(i)
	}
	result, fallback := 0, 0
	for i := range s.Hops {
		h := &s.Hops[i]
		if h.Late || h.Dst != s.Tile {
			continue
		}
		if h.Flits >= dataFlits && result == 0 {
			result = depth[i]
		}
		fallback = depth[i]
	}
	if result != 0 {
		return result
	}
	return fallback
}

// DefaultSpanCap bounds the tracer's span ring buffer: past the cap
// the oldest retained span is dropped (and counted), so week-long
// runs trace at bounded memory. 1<<17 spans of a few hundred bytes
// keep the tracer well under 100 MB even on pathological workloads.
const DefaultSpanCap = 1 << 17

// Tracer assigns span IDs, follows the kernel's causal tags, and
// retains a bounded ring of finished and in-flight spans. It
// implements mesh.Observer so every injected message lands in the
// span whose tag is current at injection time.
type Tracer struct {
	Protocol string

	k       *sim.Kernel
	cap     int
	nextID  uint64
	ring    []*Span          // drop-oldest window, in open order
	ringOff int              // index of the oldest retained span
	live    map[uint64]*Span // every span still in the ring, by ID
	open    []*Span          // per-tile open span (one outstanding ref/tile)
	dropped uint64           // spans evicted from the ring
	stray   uint64           // messages whose tag matched no live span
}

// NewTracer builds a tracer over the kernel for a chip with tiles
// tiles. cap bounds retained spans (0 = DefaultSpanCap).
func NewTracer(k *sim.Kernel, protocol string, tiles, cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultSpanCap
	}
	return &Tracer{
		Protocol: protocol,
		k:        k,
		cap:      cap,
		live:     make(map[uint64]*Span),
		open:     make([]*Span, tiles),
	}
}

// BeginMiss opens a span for a miss issued at tile and makes it the
// kernel's current causal tag, so everything the transaction schedules
// from here on is attributed to it.
func (t *Tracer) BeginMiss(tile topo.Tile, addr uint64, write bool) {
	t.nextID++
	s := &Span{ID: t.nextID, Tile: tile, Addr: addr, Write: write, Start: t.k.Now()}
	t.live[s.ID] = s
	t.open[tile] = s
	t.ring = append(t.ring, s)
	if len(t.ring)-t.ringOff > t.cap {
		old := t.ring[t.ringOff]
		t.ring[t.ringOff] = nil
		t.ringOff++
		delete(t.live, old.ID)
		if t.open[old.Tile] == old {
			t.open[old.Tile] = nil
		}
		t.dropped++
		// Compact once the dead prefix dominates, so the ring's memory
		// stays proportional to cap.
		if t.ringOff > t.cap {
			t.ring = append(t.ring[:0], t.ring[t.ringOff:]...)
			t.ringOff = 0
		}
	}
	t.k.SetTag(s.ID)
}

// EndMiss closes the tile's open span at the current cycle. Retried
// misses reuse their single span (retries are annotations, not new
// spans), and dropped fills (invalidated while pending) close cleanly
// with the Dropped mark.
func (t *Tracer) EndMiss(tile topo.Tile, class string, dropped bool) {
	s := t.open[tile]
	if s == nil {
		return // span evicted from the ring mid-flight
	}
	t.open[tile] = nil
	s.End = t.k.Now()
	s.Class = class
	s.Dropped = dropped
	s.closed = true
}

// Retry annotates the current transaction's span with one NACK-and-
// retry round trip.
func (t *Tracer) Retry(tile topo.Tile) {
	if s := t.current(); s != nil {
		s.Retries++
		s.Events = append(s.Events, Event{At: t.k.Now(), Name: "retry", Tile: tile, Addr: s.Addr})
	}
}

// Annotate appends a named protocol step on block addr to the current
// span.
func (t *Tracer) Annotate(name string, tile topo.Tile, addr uint64) {
	if s := t.current(); s != nil {
		s.Events = append(s.Events, Event{At: t.k.Now(), Name: name, Tile: tile, Addr: addr})
	}
}

// current resolves the kernel's causal tag to a live span (open or
// recently closed — trailing traffic still attributes).
func (t *Tracer) current() *Span {
	if tag := t.k.Tag(); tag != 0 {
		return t.live[tag]
	}
	return nil
}

// Message implements mesh.Observer.
func (t *Tracer) Message(src, dst topo.Tile, flits int, depart, arrive sim.Time, hops int) {
	s := t.current()
	if s == nil {
		t.stray++
		return
	}
	s.Hops = append(s.Hops, Hop{
		Src: src, Dst: dst, Flits: flits,
		Depart: depart, Arrive: arrive, Links: hops,
		Late: s.closed,
	})
}

// BroadcastDone implements mesh.Observer.
func (t *Tracer) BroadcastDone(src topo.Tile, flits, links int, maxLat sim.Time) {
	s := t.current()
	if s == nil {
		t.stray++
		return
	}
	now := t.k.Now()
	s.Hops = append(s.Hops, Hop{
		Src: src, Dst: src, Flits: flits,
		Depart: now, Arrive: now + maxLat, Links: links,
		Bcast: true, Late: s.closed,
	})
}

var _ mesh.Observer = (*Tracer)(nil)

// Spans returns the retained spans in open order. The slice aliases
// the tracer's ring; treat it as read-only.
func (t *Tracer) Spans() []*Span { return t.ring[t.ringOff:] }

// Dropped returns how many spans the ring evicted to stay under cap.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Stray returns how many messages carried a tag matching no live span
// (traffic of evicted spans, or untagged bookkeeping).
func (t *Tracer) Stray() uint64 { return t.stray }

// OpenSpans counts spans whose reference has not retired yet.
func (t *Tracer) OpenSpans() int {
	n := 0
	for _, s := range t.open {
		if s != nil {
			n++
		}
	}
	return n
}
