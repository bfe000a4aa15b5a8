package telemetry

import (
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Sample is one epoch snapshot of the running chip. Counter values
// are cumulative (the live counters are monotonic within a phase), so
// consecutive samples subtract into per-epoch rates.
type Sample struct {
	Cycle sim.Time `json:"cycle"`
	Phase string   `json:"phase"` // "warmup" or "measure"
	// Refs is the retirement total at the snapshot.
	Refs uint64 `json:"refs"`
	// QueueDepth is the kernel's pending-event count.
	QueueDepth int `json:"queue_depth"`
	// Counters holds every stats counter in registration order at
	// snapshot time, one value per Series.CounterNames entry: engines
	// register their counters when they bind handles at construction,
	// before the first sample (obs manifests reject any other length).
	Counters []uint64 `json:"counters"`
	// Energy split recomputed from the counters at snapshot time, in
	// pJ: the paper's cache-vs-network decomposition as a time series.
	EnergyCachePJ   float64 `json:"energy_cache_pj"`
	EnergyLinkPJ    float64 `json:"energy_link_pj"`
	EnergyRoutingPJ float64 `json:"energy_routing_pj"`
	// Per-VM cumulative energy split at the snapshot, indexed by VM id.
	// Nil unless per-VM attribution is armed. Derived from the per-VM
	// counter banks — pure simulation state, so the series stays
	// bit-identical serial vs sharded.
	PerVMCachePJ []float64 `json:"per_vm_cache_pj,omitempty"`
	PerVMNetPJ   []float64 `json:"per_vm_net_pj,omitempty"`
}

// Series is a bounded ring of epoch samples plus the metadata needed
// to interpret them. It is the manifest-facing (schema v2) form.
type Series struct {
	Interval sim.Time `json:"interval"`
	// CounterNames is the counter namespace; each sample's Counters
	// vector aligns to it one to one.
	CounterNames []string `json:"counter_names"`
	Samples      []Sample `json:"samples"`
	// Dropped counts samples evicted to keep the ring under its cap.
	Dropped uint64 `json:"dropped,omitempty"`
}

// DefaultSampleCap bounds the sample ring: at the default interval a
// week-long run keeps the newest 64k epochs and drops the oldest.
const DefaultSampleCap = 1 << 16

// Sampler takes cycle-periodic snapshots of a running chip. It never
// schedules an event: the run loop ends each kernel window at Due and
// calls Tick between windows, so an armed sampler leaves the event
// stream, and every simulation result, bit-identical.
type Sampler struct {
	Every sim.Time

	k        *sim.Kernel
	net      *mesh.Network
	counters *stats.Set
	energies power.TileEnergies
	refs     func() uint64

	cap     int
	series  Series
	phase   string
	due     sim.Time // cycle the next in-phase sample falls due
	ringOff int

	banks   []*stats.Set
	vmNet   func(vm int) (flits, routers uint64)
	scratch stats.Set // reconciled counters of a per-VM run (Snapshot)
}

// NewSampler builds a sampler snapshotting counters, the queue depth
// and the energy split every `every` cycles, keeping at most cap
// samples (0 = DefaultSampleCap). refs provides the retirement total;
// net and energies feed the energy split.
func NewSampler(k *sim.Kernel, every sim.Time, cap int, counters *stats.Set,
	net *mesh.Network, energies power.TileEnergies, refs func() uint64) *Sampler {
	if cap <= 0 {
		cap = DefaultSampleCap
	}
	return &Sampler{
		Every: every, k: k, net: net, counters: counters, energies: energies,
		refs: refs, cap: cap,
		series: Series{Interval: every},
	}
}

// SetBanks attaches the per-VM counter banks (and a per-VM network
// reader) of a per-VM-attributed run. Mid-run the global counters
// lack the hot-path charges — those accumulate in the banks until the
// measure-end fold — so every snapshot reconciles each counter as
// global + Σ banks, keeping Sample.Counters and the energy split
// bit-identical to an unattributed run. The banks also feed the
// optional per-VM energy columns of each sample.
func (s *Sampler) SetBanks(banks []*stats.Set, vmNet func(vm int) (flits, routers uint64)) {
	s.banks, s.vmNet = banks, vmNet
}

// SetPhase labels subsequent samples ("warmup", "measure") and starts
// the phase's sampling clock: the first sample falls due Every cycles
// from now.
func (s *Sampler) SetPhase(p string) {
	s.phase = p
	s.due = s.k.Now() + s.Every
}

// Due returns the cycle the next sample of the phase falls due at.
func (s *Sampler) Due() sim.Time { return s.due }

// Tick takes a sample if the clock has reached Due, and moves Due to
// the first boundary past now (a window that overran several
// boundaries yields one sample).
func (s *Sampler) Tick() {
	now := s.k.Now()
	if now < s.due {
		return
	}
	s.Snapshot()
	s.due += (now-s.due)/s.Every*s.Every + s.Every
}

// Snapshot records one sample immediately (Tick calls it; phase ends
// call it for a final fencepost sample).
func (s *Sampler) Snapshot() {
	counters := s.counters
	if len(s.banks) > 0 {
		// Reconcile per-VM banks into a scratch set so the sample sees
		// exactly the totals an unattributed run would (the scratch
		// mirrors the global set's name order; bank names are a subset).
		// The scratch is reused: Reset keeps its counters registered.
		s.scratch.Reset()
		s.scratch.Merge(s.counters)
		for _, b := range s.banks {
			s.scratch.Merge(b)
		}
		counters = &s.scratch
	}
	names := counters.Names()
	smp := Sample{
		Cycle:      s.k.Now(),
		Phase:      s.phase,
		Refs:       s.refs(),
		QueueDepth: s.k.Pending(),
		Counters:   make([]uint64, len(names)),
	}
	for i, n := range names {
		smp.Counters[i] = counters.Value(n)
	}
	bd := power.Dynamic(counters, s.net.Stats(), s.energies)
	smp.EnergyCachePJ = bd.CacheTotal()
	smp.EnergyLinkPJ = bd.Link
	smp.EnergyRoutingPJ = bd.Routing
	if len(s.banks) > 0 {
		smp.PerVMCachePJ = make([]float64, len(s.banks))
		smp.PerVMNetPJ = make([]float64, len(s.banks))
		for v, b := range s.banks {
			var flits, routers uint64
			if s.vmNet != nil {
				flits, routers = s.vmNet(v)
			}
			vbd := power.Dynamic(b, mesh.Stats{FlitLinkCrossing: flits, RouterTraversals: routers}, s.energies)
			smp.PerVMCachePJ[v] = vbd.CacheTotal()
			smp.PerVMNetPJ[v] = vbd.Link + vbd.Routing
		}
	}
	if len(names) > len(s.series.CounterNames) {
		s.series.CounterNames = names
	}
	s.series.Samples = append(s.series.Samples, smp)
	if len(s.series.Samples)-s.ringOff > s.cap {
		s.ringOff++
		s.series.Dropped++
		if s.ringOff > s.cap {
			s.series.Samples = append(s.series.Samples[:0], s.series.Samples[s.ringOff:]...)
			s.ringOff = 0
		}
	}
}

// Series returns the collected time series (samples in record order,
// oldest retained first).
func (s *Sampler) Series() *Series {
	out := s.series
	out.Samples = s.series.Samples[s.ringOff:]
	return &out
}
