// Package workload generates the synthetic memory reference streams
// that stand in for the paper's consolidated benchmarks (Table IV):
// apache, jbb, radix, lu, volrend, tomcatv and the two mixed
// configurations, each run as 4 VMs of 16 cores.
//
// Each per-VM profile is calibrated on three axes that drive every
// result in the paper's evaluation:
//
//   - Working-set size: apache and jbb have working sets much larger
//     than the L1 (L2-power-dominated); the scientific kernels mostly
//     fit in the L1 (L1-power-dominated). jbb's working set also
//     exceeds its share of the L2, giving the >40% L2 miss rate the
//     paper reports.
//   - Sharing: thread-private, VM-shared, and inter-VM deduplicated
//     (read-only) pages, with the dedup page count solved from the
//     memory savings column of Table IV.
//   - Locality: Zipf-distributed page popularity plus sequential
//     bursts within a page.
package workload

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Access is one memory reference of a core.
type Access struct {
	Addr  cache.Addr
	Write bool
	Gap   sim.Time // non-memory cycles preceding this reference
}

// VMProfile describes the memory behaviour of one VM's application.
type VMProfile struct {
	Name       string
	ContentKey uint64 // VMs with equal keys deduplicate against each other

	PrivatePagesPerThread int
	VMSharedPages         int
	DedupPages            int

	WriteFrac         float64 // writes among private-page block visits
	VMSharedWriteFrac float64 // writes among VM-shared visits (read-mostly)
	DedupWriteFrac    float64 // writes among dedup accesses (CoW; near zero)
	DedupFrac         float64 // accesses hitting dedup pages
	VMSharedFrac      float64 // accesses hitting VM-shared pages

	// Dedup accesses split between a small chip-hot set (libc-style
	// pages every thread touches) and a per-thread window of the
	// full deduplicated image (so each core's active footprint stays
	// bounded while the VM as a whole touches — and deduplicates —
	// the entire set).
	HotDedupPages int
	HotShare      float64

	ZipfS        float64 // page-popularity skew (0 = uniform)
	BurstBlocks  int     // sequential blocks touched per page visit
	RefsPerBlock int     // mean references per block touch (word-level reuse)
	MeanGap      int     // mean non-memory cycles between references
	RefsPerTx    int     // references per "transaction" (server metric)
	ServerMetric bool    // true: transactions/cycles; false: runtime
}

// dedupPagesFor solves Table IV's memory-savings column for the number
// of deduplicated pages: with nVM VMs sharing D pages and P private
// pages each, saved = (nVM-1)*D / (nVM*(P+D)).
func dedupPagesFor(saved float64, privatePages, nVM int) int {
	if saved <= 0 {
		return 0
	}
	num := saved * float64(nVM) * float64(privatePages)
	den := float64(nVM-1) - saved*float64(nVM)
	if den <= 0 {
		panic("workload: infeasible dedup savings target")
	}
	return int(math.Round(num / den))
}

func key(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

const vmsPerChip = 4

// windowGroup is the number of threads sharing one dedup window, so
// that in-area providers get reused by neighbours.
const windowGroup = 4

func profile(name string) VMProfile {
	p := VMProfile{
		Name:              name,
		ContentKey:        key(name),
		WriteFrac:         0.25,
		VMSharedWriteFrac: 0.08,
		DedupWriteFrac:    0.002,
		ZipfS:             0.85,
		BurstBlocks:       4,
		RefsPerBlock:      8,
		MeanGap:           3,
		RefsPerTx:         400,
		HotDedupPages:     16,
		HotShare:          0.4,
	}
	switch name {
	case "apache":
		// Web server: large working set, hot shared content, lots of
		// deduplicated binaries/libraries. L2-power-dominated.
		// Per-worker state is small (fits the L1); the shared content
		// (site data, php/apache binaries) is large and thrashes, so
		// most misses go to blocks held by other L1s — the pattern
		// Direct Coherence exploits.
		p.PrivatePagesPerThread = 24
		p.VMSharedPages = 1024
		p.WriteFrac = 0.20
		p.DedupFrac = 0.34
		p.VMSharedFrac = 0.36
		p.VMSharedWriteFrac = 0.18
		p.ServerMetric = true
		p.ZipfS = 0.8
		p.HotDedupPages = 128
		p.HotShare = 0.5
		total := 16*p.PrivatePagesPerThread + p.VMSharedPages
		p.DedupPages = dedupPagesFor(0.2172, total, vmsPerChip)
	case "jbb":
		// Java server: huge heap, >40% L2 miss rate, weak locality.
		// Huge heap with weak locality: the working set exceeds even
		// the L2 share, giving the >40% L2 miss rate of Section V-C.
		p.PrivatePagesPerThread = 96
		p.VMSharedPages = 6144
		p.WriteFrac = 0.30
		p.VMSharedWriteFrac = 0.15
		p.DedupFrac = 0.24
		p.VMSharedFrac = 0.40
		p.ServerMetric = true
		p.ZipfS = 0.3
		p.HotDedupPages = 64
		p.HotShare = 0.25
		p.RefsPerBlock = 6
		total := 16*p.PrivatePagesPerThread + p.VMSharedPages
		p.DedupPages = dedupPagesFor(0.2388, total, vmsPerChip)
	case "radix":
		// Integer sort over partitioned keys: small per-thread set.
		p.PrivatePagesPerThread = 12
		p.VMSharedPages = 8
		p.WriteFrac = 0.35
		p.DedupFrac = 0.28
		p.VMSharedFrac = 0.08
		p.BurstBlocks = 8
		p.ZipfS = 0.9
		p.RefsPerBlock = 12
		p.HotShare = 0.75
		p.HotDedupPages = 12
		total := 16*p.PrivatePagesPerThread + p.VMSharedPages
		p.DedupPages = dedupPagesFor(0.2418, total, vmsPerChip)
	case "lu":
		// Dense factorization: blocked matrix mostly in L1.
		p.PrivatePagesPerThread = 14
		p.VMSharedPages = 12
		p.WriteFrac = 0.30
		p.DedupFrac = 0.30
		p.VMSharedFrac = 0.10
		p.BurstBlocks = 8
		p.ZipfS = 0.9
		p.RefsPerBlock = 12
		p.HotShare = 0.75
		p.HotDedupPages = 12
		total := 16*p.PrivatePagesPerThread + p.VMSharedPages
		p.DedupPages = dedupPagesFor(0.3271, total, vmsPerChip)
	case "volrend":
		// Ray casting: read-mostly shared volume.
		p.PrivatePagesPerThread = 10
		p.VMSharedPages = 16
		p.WriteFrac = 0.12
		p.DedupFrac = 0.28
		p.VMSharedFrac = 0.20
		p.ZipfS = 0.95
		p.RefsPerBlock = 14
		p.HotShare = 0.75
		p.HotDedupPages = 12
		total := 16*p.PrivatePagesPerThread + p.VMSharedPages
		p.DedupPages = dedupPagesFor(0.30, total, vmsPerChip)
	case "tomcatv":
		// Vectorized mesh generation: strided private arrays.
		p.PrivatePagesPerThread = 13
		p.VMSharedPages = 8
		p.WriteFrac = 0.33
		p.DedupFrac = 0.30
		p.VMSharedFrac = 0.06
		p.BurstBlocks = 12
		p.ZipfS = 0.9
		p.RefsPerBlock = 12
		p.HotShare = 0.75
		p.HotDedupPages = 12
		total := 16*p.PrivatePagesPerThread + p.VMSharedPages
		p.DedupPages = dedupPagesFor(0.3682, total, vmsPerChip)
	default:
		panic(fmt.Sprintf("workload: unknown profile %q", name))
	}
	if p.HotDedupPages > p.DedupPages {
		p.HotDedupPages = p.DedupPages
	}
	return p
}

// Workload is a consolidated configuration: one profile per VM.
type Workload struct {
	Name string
	VMs  []VMProfile
}

// Names lists the benchmark configurations of Table IV.
var Names = []string{
	"apache4x16p", "jbb4x16p", "radix4x16p", "lu4x16p",
	"volrend4x16p", "tomcatv4x16p", "mixed-com", "mixed-sci",
}

// Named returns the Table IV workload with the given name.
func Named(name string) (Workload, error) {
	single := func(p string) Workload {
		w := Workload{Name: name}
		for i := 0; i < vmsPerChip; i++ {
			w.VMs = append(w.VMs, profile(p))
		}
		return w
	}
	switch name {
	case "apache4x16p":
		return single("apache"), nil
	case "jbb4x16p":
		return single("jbb"), nil
	case "radix4x16p":
		return single("radix"), nil
	case "lu4x16p":
		return single("lu"), nil
	case "volrend4x16p":
		return single("volrend"), nil
	case "tomcatv4x16p":
		return single("tomcatv"), nil
	case "mixed-com":
		return Workload{Name: name, VMs: []VMProfile{
			profile("apache"), profile("apache"), profile("jbb"), profile("jbb"),
		}}, nil
	case "mixed-sci":
		return Workload{Name: name, VMs: []VMProfile{
			profile("radix"), profile("lu"), profile("volrend"), profile("tomcatv"),
		}}, nil
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// MustNamed is Named but panics on error.
func MustNamed(name string) Workload {
	w, err := Named(name)
	if err != nil {
		panic(err)
	}
	return w
}

// zipf is a precomputed inverse-CDF sampler for Zipf(s) over [0, n).
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) sample(r *sim.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pageClass identifies the three sharing classes.
type pageClass int

const (
	classPrivate pageClass = iota
	classVMShared
	classDedup
	numClasses
)

// coreState is the per-core spatial/temporal-locality cursor.
type coreState struct {
	page   uint64
	class  pageClass
	block  int
	burst  int
	repeat int // remaining references to the current block
	write  bool
}

// Generator produces the reference stream of every core of the chip.
type Generator struct {
	workload  Workload
	placement *topo.Placement
	mapper    *memctrl.Mapper
	rng       []*sim.Rand
	cores     []coreState
	threadIdx []int // core -> thread index within its VM

	// firstID holds, per VM and page class, the mapper id of page 0;
	// the class's pages follow it consecutively (private pages
	// thread-major: thread*PrivatePagesPerThread + page).
	firstID [][numClasses]memctrl.PageID

	zipfPriv []*zipf // per VM
	zipfVM   []*zipf
	zipfHot  []*zipf // chip-hot dedup pages
	zipfWin  []*zipf // per-thread dedup window
	winSize  []int

	clock []*sim.Kernel // tile -> its lane's kernel (nil: cycle 0)
}

// SetLanes binds the generator to the executor lanes: laneOf maps each
// tile to the lane whose kernel runs it, and kernels holds each lane's
// clock. Next then translates pages at the calling tile's current
// cycle, which is what makes copy-on-write visibility lane-safe under
// the parallel executor.
func (g *Generator) SetLanes(laneOf []int, kernels []*sim.Kernel) {
	g.clock = make([]*sim.Kernel, len(laneOf))
	for tile, lane := range laneOf {
		g.clock[tile] = kernels[lane]
	}
}

// NewGenerator builds a generator for workload w on the given VM
// placement, translating pages through mapper (which applies
// deduplication).
func NewGenerator(w Workload, placement *topo.Placement, mapper *memctrl.Mapper, rng *sim.Rand) *Generator {
	if len(w.VMs) != placement.NumVMs {
		panic(fmt.Sprintf("workload: %d VM profiles for %d placed VMs", len(w.VMs), placement.NumVMs))
	}
	nCores := 0
	for vm := 0; vm < placement.NumVMs; vm++ {
		nCores += len(placement.TilesOf(vm))
	}
	nVM := len(w.VMs)
	g := &Generator{
		workload:  w,
		placement: placement,
		mapper:    mapper,
		rng:       make([]*sim.Rand, nCores),
		cores:     make([]coreState, nCores),
		threadIdx: make([]int, nCores),
		firstID:   make([][numClasses]memctrl.PageID, nVM),
		zipfPriv:  make([]*zipf, nVM),
		zipfVM:    make([]*zipf, nVM),
		zipfHot:   make([]*zipf, nVM),
		zipfWin:   make([]*zipf, nVM),
		winSize:   make([]int, nVM),
	}
	for i := range g.rng {
		g.rng[i] = rng.Fork()
	}
	pages := 0
	for vm, p := range w.VMs {
		pages += len(placement.TilesOf(vm))*p.PrivatePagesPerThread + p.VMSharedPages + p.DedupPages
	}
	mapper.Reserve(pages)
	// VMs that run one profile draw from identical read-only tables:
	// build each (pages, s) table once.
	type zipfKey struct {
		n int
		s float64
	}
	zipfs := map[zipfKey]*zipf{}
	zipfOf := func(n int, s float64) *zipf {
		k := zipfKey{n, s}
		if zipfs[k] == nil {
			zipfs[k] = newZipf(n, s)
		}
		return zipfs[k]
	}
	for vm := 0; vm < placement.NumVMs; vm++ {
		for i, tile := range placement.TilesOf(vm) {
			g.threadIdx[tile] = i
		}
		p := w.VMs[vm]
		// The hypervisor maps every page of the VM image up front, so
		// the deduplication savings reflect allocated memory (Table
		// IV's metric) rather than the access order. The classes lie
		// in disjoint regions of the VM's virtual space; dedup pages
		// use the profile's content key, so only VMs running the same
		// application share frames. Map hands out ids densely, so a
		// class's ids run on from the table's length when it starts.
		threads := len(placement.TilesOf(vm))
		g.firstID[vm][classPrivate] = mapper.Pages()
		for th := 0; th < threads; th++ {
			for pg := 0; pg < p.PrivatePagesPerThread; pg++ {
				mapper.Map(1<<57|uint64(th)<<32|uint64(pg), memctrl.PagePrivate)
			}
		}
		g.firstID[vm][classVMShared] = mapper.Pages()
		for pg := 0; pg < p.VMSharedPages; pg++ {
			mapper.Map(1<<56|uint64(pg), memctrl.PageVMShared)
		}
		g.firstID[vm][classDedup] = mapper.Pages()
		for pg := 0; pg < p.DedupPages; pg++ {
			mapper.Map(p.ContentKey<<20|uint64(pg), memctrl.PageDedup)
		}
		if p.PrivatePagesPerThread > 0 {
			g.zipfPriv[vm] = zipfOf(p.PrivatePagesPerThread, p.ZipfS)
		}
		if p.VMSharedPages > 0 {
			g.zipfVM[vm] = zipfOf(p.VMSharedPages, p.ZipfS)
		}
		if p.DedupPages > 0 {
			// Windows are shared by groups of threads: cores of the
			// same group (and the matching groups of the other VMs)
			// touch the same slice of the deduplicated image, so
			// in-area providers get reused.
			groups := (threads + windowGroup - 1) / windowGroup
			win := (p.DedupPages + groups - 1) / groups
			if win < 1 {
				win = 1
			}
			g.winSize[vm] = win
			g.zipfWin[vm] = zipfOf(win, p.ZipfS)
			hot := p.HotDedupPages
			if hot < 1 {
				hot = 1
			}
			g.zipfHot[vm] = zipfOf(hot, p.ZipfS)
		}
	}
	return g
}

// Profile returns the profile of the VM running on tile.
func (g *Generator) Profile(tile topo.Tile) VMProfile {
	return g.workload.VMs[g.placement.VMOf(tile)]
}

// Next produces the next reference of core tile.
func (g *Generator) Next(tile topo.Tile) Access {
	vm := g.placement.VMOf(tile)
	p := &g.workload.VMs[vm]
	r := g.rng[tile]
	cs := &g.cores[tile]

	if cs.repeat <= 0 {
		if cs.burst <= 0 {
			// Pick a new page.
			u := r.Float64()
			switch {
			case u < p.DedupFrac && p.DedupPages > 0:
				cs.class = classDedup
				if r.Float64() < p.HotShare {
					cs.page = uint64(g.zipfHot[vm].sample(r))
				} else {
					base := g.threadIdx[tile] / windowGroup * g.winSize[vm]
					cs.page = uint64((base + g.zipfWin[vm].sample(r)) % p.DedupPages)
				}
			case u < p.DedupFrac+p.VMSharedFrac && p.VMSharedPages > 0:
				cs.class = classVMShared
				cs.page = uint64(g.zipfVM[vm].sample(r))
			default:
				cs.class = classPrivate
				cs.page = uint64(g.zipfPriv[vm].sample(r))
			}
			cs.block = r.Intn(memctrl.BlocksPerPage)
			cs.burst = 1 + r.Intn(2*p.BurstBlocks)
		}
		cs.burst--
		cs.block = (cs.block + 1) % memctrl.BlocksPerPage
		// Word-level reuse: a 64-byte line is touched many times while
		// the code works on it.
		cs.repeat = 1 + r.Intn(2*p.RefsPerBlock)
		// The write/read decision is per block visit (a written line
		// is usually written several times, but classifying per
		// reference would turn every block into a write miss).
		switch cs.class {
		case classDedup:
			cs.write = r.Float64() < p.DedupWriteFrac
		case classVMShared:
			cs.write = r.Float64() < p.VMSharedWriteFrac
		default:
			cs.write = r.Float64() < p.WriteFrac
		}
	}
	cs.repeat--
	// Within a block visit, most references read; a writing visit
	// issues a store about a third of the time.
	write := cs.write && r.Intn(3) == 0
	if cs.write && cs.repeat == 0 {
		write = true // ensure a writing visit stores at least once
	}

	now := sim.Time(0)
	if g.clock != nil {
		now = g.clock[tile].Now()
	}
	phys := g.mapper.Frame(g.pageID(vm, tile, cs.class, cs.page, p), write, now)
	gap := sim.Time(r.Intn(2*p.MeanGap + 1))
	return Access{Addr: memctrl.BlockAddr(phys, cs.block), Write: write, Gap: gap}
}

// pageID returns the mapper's id for page number page of a class, as
// seen from tile (private pages are per thread).
func (g *Generator) pageID(vm int, tile topo.Tile, class pageClass, page uint64, p *VMProfile) memctrl.PageID {
	if class == classPrivate {
		page += uint64(g.threadIdx[tile] * p.PrivatePagesPerThread)
	}
	return g.firstID[vm][class] + memctrl.PageID(page)
}
