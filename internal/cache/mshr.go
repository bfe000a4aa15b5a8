package cache

// MSHR tracks the outstanding misses of one L1 controller. Each entry
// carries the two acknowledgement counters DiCo-Providers requires
// (Section IV-A: one for provider acks, one for sharer acks) — the
// other protocols simply leave ProviderAcks at zero.
//
// Entries live in a small insertion-ordered slice backed by a free
// list rather than a map: a blocking in-order core keeps at most a
// handful of misses in flight per tile, and the protocols consult the
// MSHR a dozen-plus times per miss, so a linear scan over one or two
// pooled entries beats hashing the address every time and allocates
// nothing in steady state.
type MSHR struct {
	capacity int
	active   []*MSHREntry // in-flight, insertion order
	free     *MSHREntry   // recycled entries, linked through next
}

// MSHREntry is one in-flight miss.
type MSHREntry struct {
	Addr         Addr
	Write        bool
	IssuedAt     uint64 // kernel time at allocation, for latency stats
	SharerAcks   int    // pending acknowledgements from sharers
	ProviderAcks int    // pending acknowledgements from providers
	DataReceived bool
	// HomeAck counts pending Change_Owner acknowledgements. It is a
	// counter, not a flag: the expectation (+1) rides to the requestor
	// with the data message while the ack itself travels directly, so
	// an early ack legitimately drives it to -1 until the data arrives.
	HomeAck int

	// Deferred work to run when the miss completes.
	OnComplete func()

	// Tag describes how the miss was routed, for the Figure 9b
	// breakdown; the protocol sets it.
	Tag int
	// Links accumulates the mesh links traversed by the miss's
	// messages (request legs + data response), for Section V-D's
	// shortened-miss analysis.
	Links int
	// NeedsData distinguishes a full miss from an ownership upgrade.
	NeedsData bool
	// InvalidatedWhilePending is set when an invalidation for this
	// block arrives while the miss is in flight; the fill then
	// completes the access but immediately drops the line (the racing
	// write serialized after this access).
	InvalidatedWhilePending bool

	next *MSHREntry // free-list link; nil while in flight
}

// NewMSHR returns an MSHR with the given capacity (0 = unlimited).
func NewMSHR(capacity int) *MSHR {
	return &MSHR{capacity: capacity}
}

// Lookup returns the entry for a, if any.
func (m *MSHR) Lookup(a Addr) (*MSHREntry, bool) {
	for _, e := range m.active {
		if e.Addr == a {
			return e, true
		}
	}
	return nil, false
}

// Full reports whether a new allocation would exceed capacity.
func (m *MSHR) Full() bool {
	return m.capacity > 0 && len(m.active) >= m.capacity
}

// Allocate creates an entry for a. It panics if a is already in flight
// (the controller must merge or stall first) or if the MSHR is full.
func (m *MSHR) Allocate(a Addr, write bool, now uint64) *MSHREntry {
	if _, ok := m.Lookup(a); ok {
		panic("cache: MSHR double allocation")
	}
	if m.Full() {
		panic("cache: MSHR overflow; caller must check Full")
	}
	e := m.free
	if e != nil {
		m.free = e.next
		*e = MSHREntry{Addr: a, Write: write, IssuedAt: now}
	} else {
		e = &MSHREntry{Addr: a, Write: write, IssuedAt: now}
	}
	m.active = append(m.active, e)
	return e
}

// Release removes the entry for a and recycles it. It panics if
// absent.
func (m *MSHR) Release(a Addr) {
	for i, e := range m.active {
		if e.Addr == a {
			copy(m.active[i:], m.active[i+1:])
			m.active[len(m.active)-1] = nil
			m.active = m.active[:len(m.active)-1]
			e.OnComplete = nil // drop the closure before pooling
			e.next = m.free
			m.free = e
			return
		}
	}
	panic("cache: MSHR release of absent entry")
}

// Outstanding returns the number of in-flight misses.
func (m *MSHR) Outstanding() int { return len(m.active) }

// Entries returns the in-flight entries in allocation order; the slice
// is the MSHR's own and valid only until the next Allocate or Release.
func (m *MSHR) Entries() []*MSHREntry { return m.active }

// Done reports whether the entry's completion conditions are all met:
// data arrived and no acknowledgement of any kind is pending.
func (e *MSHREntry) Done() bool {
	return e.DataReceived && e.SharerAcks == 0 && e.ProviderAcks == 0 && e.HomeAck == 0
}
