package mesh

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

// nopArg is a delivery handler that does nothing; call runs a func()
// argument, so a test can observe its delivery.
func nopArg(any) {}
func call(a any) { a.(func())() }

// tileArgs returns Broadcast arguments that hand each destination its
// own tile.
func tileArgs(n *Network) []any {
	args := make([]any, n.Grid().Tiles())
	for t := range args {
		args[t] = topo.Tile(t)
	}
	return args
}

func newNet(contention bool) (*sim.Kernel, *Network) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.Contention = contention
	return k, New(k, topo.NewGrid(8, 8), cfg)
}

func TestSendLatencyUncontended(t *testing.T) {
	k, n := newNet(false)
	g := n.Grid()
	delivered := false
	d := n.SendArg(g.At(0, 0), g.At(3, 0), 1, call, func() { delivered = true })
	// 3 hops x (2+2+1) + 0 serialization = 15 cycles.
	if d.Latency != 15 {
		t.Errorf("latency = %d, want 15", d.Latency)
	}
	if d.Hops != 3 || d.Routers != 4 {
		t.Errorf("hops/routers = %d/%d, want 3/4", d.Hops, d.Routers)
	}
	k.Run(0)
	if !delivered || k.Now() != 15 {
		t.Errorf("delivered=%v at %d, want true at 15", delivered, k.Now())
	}
}

func TestSendDataSerialization(t *testing.T) {
	_, n := newNet(false)
	g := n.Grid()
	d := n.SendArg(g.At(0, 0), g.At(1, 0), 5, nopArg, nil)
	// 1 hop x 5 + (5-1) tail = 9 cycles.
	if d.Latency != 9 {
		t.Errorf("latency = %d, want 9", d.Latency)
	}
}

func TestSendSameTile(t *testing.T) {
	k, n := newNet(true)
	g := n.Grid()
	d := n.SendArg(g.At(2, 2), g.At(2, 2), 1, nopArg, nil)
	if d.Hops != 0 || d.Routers != 1 {
		t.Errorf("same-tile hops/routers = %d/%d, want 0/1", d.Hops, d.Routers)
	}
	if d.Latency != 3 { // switch 2 + router 1
		t.Errorf("same-tile latency = %d, want 3", d.Latency)
	}
	k.Run(0)
	if n.Stats().FlitLinkCrossing != 0 {
		t.Error("same-tile send crossed a link")
	}
}

func TestXYRoutingHops(t *testing.T) {
	_, n := newNet(false)
	g := n.Grid()
	if err := quick.Check(func(a, b uint8) bool {
		src, dst := topo.Tile(int(a)%64), topo.Tile(int(b)%64)
		d := n.SendArg(src, dst, 1, nopArg, nil)
		return d.Hops == g.Hops(src, dst)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestContentionSerializesLink(t *testing.T) {
	k, n := newNet(true)
	g := n.Grid()
	var first, second sim.Time
	n.SendArg(g.At(0, 0), g.At(1, 0), 5, call, func() { first = k.Now() })
	n.SendArg(g.At(0, 0), g.At(1, 0), 5, call, func() { second = k.Now() })
	k.Run(0)
	if second <= first {
		t.Errorf("contended messages not serialized: first=%d second=%d", first, second)
	}
	if n.Stats().QueueingCycles == 0 {
		t.Error("no queueing cycles recorded under contention")
	}
}

func TestNoContentionIgnoresOccupancy(t *testing.T) {
	k, n := newNet(false)
	g := n.Grid()
	var times []sim.Time
	for i := 0; i < 3; i++ {
		n.SendArg(g.At(0, 0), g.At(1, 0), 5, call, func() { times = append(times, k.Now()) })
	}
	k.Run(0)
	if times[0] != times[1] || times[1] != times[2] {
		t.Errorf("contention off should deliver simultaneously: %v", times)
	}
}

func TestDifferentLinksNoInterference(t *testing.T) {
	k, n := newNet(true)
	g := n.Grid()
	var aAt, bAt sim.Time
	n.SendArg(g.At(0, 0), g.At(1, 0), 5, call, func() { aAt = k.Now() })
	n.SendArg(g.At(0, 1), g.At(1, 1), 5, call, func() { bAt = k.Now() })
	k.Run(0)
	if aAt != bAt {
		t.Errorf("disjoint paths interfered: %d vs %d", aAt, bAt)
	}
}

func TestStatsAccumulation(t *testing.T) {
	k, n := newNet(false)
	g := n.Grid()
	n.SendArg(g.At(0, 0), g.At(2, 0), 5, nopArg, nil) // 2 hops, 10 flit-links
	n.SendArg(g.At(0, 0), g.At(0, 1), 1, nopArg, nil) // 1 hop, 1 flit-link
	k.Run(0)
	s := n.Stats()
	if s.Messages != 2 {
		t.Errorf("Messages = %d, want 2", s.Messages)
	}
	if s.FlitLinkCrossing != 11 {
		t.Errorf("FlitLinkCrossing = %d, want 11", s.FlitLinkCrossing)
	}
	if s.RouterTraversals != 3+2 {
		t.Errorf("RouterTraversals = %d, want 5", s.RouterTraversals)
	}
	if s.TotalHops != 3 {
		t.Errorf("TotalHops = %d, want 3", s.TotalHops)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	k, n := newNet(false)
	g := n.Grid()
	got := make(map[topo.Tile]bool)
	src := g.At(3, 4)
	bd := n.Broadcast(src, 1, func(a any) { got[a.(topo.Tile)] = true }, tileArgs(n))
	k.Run(0)
	if len(got) != 63 {
		t.Fatalf("broadcast reached %d tiles, want 63", len(got))
	}
	if got[src] {
		t.Error("broadcast delivered to source")
	}
	if bd.Destinations != 63 {
		t.Errorf("Destinations = %d, want 63", bd.Destinations)
	}
	// Spanning tree on 64 nodes has exactly 63 edges.
	if bd.Links != 63 {
		t.Errorf("tree links = %d, want 63", bd.Links)
	}
}

func TestBroadcastCheaperThanUnicasts(t *testing.T) {
	k, n := newNet(false)
	g := n.Grid()
	tree := n.Broadcast(g.At(0, 0), 1, nopArg, tileArgs(n))
	k.Run(0)
	k2, n2 := newNet(false)
	uni := n2.UnicastBroadcast(g.At(0, 0), 1, nopArg, tileArgs(n2))
	k2.Run(0)
	if tree.Links >= uni.Links {
		t.Errorf("tree broadcast (%d links) not cheaper than unicasts (%d links)",
			tree.Links, uni.Links)
	}
}

func TestBroadcastFromEveryCorner(t *testing.T) {
	g := topo.NewGrid(8, 8)
	for _, src := range []topo.Tile{g.At(0, 0), g.At(7, 0), g.At(0, 7), g.At(7, 7), g.At(4, 4)} {
		k := sim.NewKernel(1)
		n := New(k, g, DefaultConfig())
		count := 0
		n.Broadcast(src, 5, func(any) { count++ }, tileArgs(n))
		k.Run(0)
		if count != 63 {
			t.Errorf("broadcast from %d reached %d, want 63", src, count)
		}
	}
}

func TestMeanDistance8x8(t *testing.T) {
	// Exact mean for an 8x8 mesh: 2 * (64*8*8/... ) -- by symmetry each
	// dimension contributes mean |xi-xj| over distinct pairs; just
	// sanity-bound near the paper's 2/3*sqrt(64) ~ 5.33 per... the
	// paper's "10.6 links" is for a 2-leg round trip; one leg averages
	// ~5.33 links. Enumerated mean over distinct pairs is 5.3978...
	m := MeanDistance(topo.NewGrid(8, 8))
	if m < 5.0 || m < 5.33-0.5 || m > 5.8 {
		t.Errorf("MeanDistance = %v, want ~5.33-5.4", m)
	}
}

func TestSendPanicsOnBadArgs(t *testing.T) {
	_, n := newNet(false)
	for _, fn := range []func(){
		func() { n.SendArg(-1, 0, 1, nopArg, nil) },
		func() { n.SendArg(0, 200, 1, nopArg, nil) },
		func() { n.SendArg(0, 1, 0, nopArg, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Send did not panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkSend(b *testing.B) {
	k, n := newNet(true)
	g := n.Grid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendArg(topo.Tile(i%64), g.At(7, 7), 5, nopArg, nil)
		if k.Pending() > 4096 {
			k.Run(0)
		}
	}
	k.Run(0)
}

func BenchmarkBroadcastTree(b *testing.B) {
	k, n := newNet(true)
	args := tileArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Broadcast(topo.Tile(i%64), 1, nopArg, args)
		if k.Pending() > 4096 {
			k.Run(0)
		}
	}
	k.Run(0)
}

func TestUnicastBroadcastReachesAll(t *testing.T) {
	k, n := newNet(false)
	count := 0
	n.UnicastBroadcast(5, 1, func(any) { count++ }, tileArgs(n))
	k.Run(0)
	if count != 63 {
		t.Errorf("unicast broadcast reached %d tiles, want 63", count)
	}
}

func TestResetStats(t *testing.T) {
	k, n := newNet(false)
	n.SendArg(0, 5, 5, nopArg, nil)
	k.Run(0)
	if n.Stats().Messages == 0 {
		t.Fatal("no traffic before reset")
	}
	n.ResetStats()
	s := n.Stats()
	if s.Messages != 0 || s.FlitLinkCrossing != 0 || s.RouterTraversals != 0 {
		t.Errorf("ResetStats left counters: %+v", s)
	}
}

func TestBroadcastDeterministicOrder(t *testing.T) {
	// Two identical kernels must deliver broadcast events in the same
	// order (the delivery scheduling is tile-ordered, not map-ordered).
	run := func() []topo.Tile {
		k := sim.NewKernel(3)
		n := New(k, topo.NewGrid(8, 8), DefaultConfig())
		var order []topo.Tile
		n.Broadcast(9, 1, func(a any) { order = append(order, a.(topo.Tile)) }, tileArgs(n))
		k.Run(0)
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("broadcast delivery order diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// tapObs records every observer callback for the observer tests.
type tapObs struct {
	msgs  []string
	bcast int
}

func (o *tapObs) Message(src, dst topo.Tile, flits int, depart, arrive sim.Time, hops int) {
	o.msgs = append(o.msgs, fmt.Sprintf("%d->%d f%d %d..%d h%d", src, dst, flits, depart, arrive, hops))
}

func (o *tapObs) BroadcastDone(src topo.Tile, flits, links int, maxLat sim.Time) {
	o.bcast++
	if links <= 0 || maxLat <= 0 {
		o.msgs = append(o.msgs, "bad broadcast")
	}
}

// TestObserverTap requires the observer to see every unicast with the
// exact endpoints, flit count, injection/arrival cycles and hop count
// the router computed — and to see nothing once detached.
func TestObserverTap(t *testing.T) {
	k, n := newNet(false)
	g := n.Grid()
	tap := &tapObs{}
	n.SetObserver(tap)

	d := n.SendArg(g.At(0, 0), g.At(3, 0), 1, nopArg, nil)
	n.SendArg(g.At(2, 2), g.At(2, 2), 5, nopArg, nil) // same-tile: 0 hops
	k.Run(0)
	want := []string{
		fmt.Sprintf("0->3 f1 0..%d h3", d.Latency),
		fmt.Sprintf("18->18 f5 0..3 h0"),
	}
	if len(tap.msgs) != len(want) {
		t.Fatalf("observer saw %d messages, want %d: %v", len(tap.msgs), len(want), tap.msgs)
	}
	for i := range want {
		if tap.msgs[i] != want[i] {
			t.Errorf("message %d = %q, want %q", i, tap.msgs[i], want[i])
		}
	}

	n.SetObserver(nil)
	n.SendArg(g.At(0, 0), g.At(1, 0), 1, nopArg, nil)
	if len(tap.msgs) != len(want) {
		t.Error("detached observer still saw traffic")
	}
}

// TestObserverBroadcast requires one BroadcastDone per broadcast.
func TestObserverBroadcast(t *testing.T) {
	k, n := newNet(false)
	g := n.Grid()
	tap := &tapObs{}
	n.SetObserver(tap)
	n.Broadcast(g.At(1, 1), 1, nopArg, tileArgs(n))
	k.Run(0)
	if tap.bcast != 1 {
		t.Errorf("observer saw %d broadcasts, want 1", tap.bcast)
	}
	for _, m := range tap.msgs {
		if m == "bad broadcast" {
			t.Error("broadcast reported non-positive links or latency")
		}
	}
}

// TestSendNoAllocs gates the unicast hot path: SendArg plus the kernel
// dispatch of its delivery must not allocate once the kernel's node
// arena and the path scratch buffer have warmed up.
func TestSendNoAllocs(t *testing.T) {
	k, n := newNet(true)
	cycle := func() {
		n.SendArg(3, 60, 5, nopArg, nil)
		k.Run(0)
	}
	for i := 0; i < 32; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Errorf("Send+deliver allocates %.2f/op, want 0", avg)
	}
}

// TestMaxLatencyCoversContention sends bursts of data messages through
// shared links, so later messages queue behind earlier ones, and
// requires MaxLatency to be at least every latency the mesh reported
// and every latency a delivery observed, and never below one hop.
func TestMaxLatencyCoversContention(t *testing.T) {
	k, n := newNet(true)
	g := n.Grid()
	if got := n.MaxLatency(); got != n.Config().HopLatency() {
		t.Fatalf("fresh mesh MaxLatency = %d, want one hop (%d)", got, n.Config().HopLatency())
	}
	n.SendArg(g.At(3, 3), g.At(3, 3), 5, nopArg, nil) // same tile: no link, no record
	if got := n.MaxLatency(); got != n.Config().HopLatency() {
		t.Fatalf("MaxLatency = %d after a same-tile send, want one hop (%d)", got, n.Config().HopLatency())
	}
	var worst sim.Time
	for i := 0; i < 40; i++ {
		src, dst := g.At(i%3, 0), g.At(7, i%8)
		sent := k.Now()
		d := n.SendArg(src, dst, 5, call, func() {
			if lat := k.Now() - sent; lat > n.MaxLatency() {
				t.Errorf("delivery %d->%d took %d cycles, MaxLatency %d", src, dst, lat, n.MaxLatency())
			}
		})
		worst = max(worst, d.Latency)
		if n.MaxLatency() < d.Latency {
			t.Fatalf("send %d: latency %d above MaxLatency %d", i, d.Latency, n.MaxLatency())
		}
	}
	k.Run(0)
	if n.Stats().QueueingCycles == 0 {
		t.Fatal("no link contention: the burst never queued")
	}
	if n.MaxLatency() != worst {
		t.Errorf("MaxLatency = %d, want the longest latency sent (%d)", n.MaxLatency(), worst)
	}
}

// TestMaxLatencyParallelDeferredSends runs contended cross-tile sends
// from every tile on a 4-lane RunParallel executor, where each send is
// deferred to its window's barrier, and requires MaxLatency, read by
// the receiving lane at delivery, to cover the delivery's latency, and
// to match a serial run of the same sends at the end.
func TestMaxLatencyParallelDeferredSends(t *testing.T) {
	run := func(shards int) sim.Time {
		cfg := DefaultConfig()
		cfg.Contention = true
		grid := topo.NewGrid(8, 8)
		var lanes []*sim.Kernel
		var shardOf []int
		var n *Network
		var drive func(limit sim.Time)
		if shards == 0 {
			k := sim.NewKernel(1)
			n = New(k, grid, cfg)
			shardOf = make([]int, grid.Tiles())
			lanes = []*sim.Kernel{k}
			drive = func(limit sim.Time) { k.Run(limit) }
		} else {
			sk := sim.NewSharded(1, shards, cfg.HopLatency())
			n = New(sk.Hub(), grid, cfg)
			shardOf = topo.Partition(grid, shards)
			for i := 0; i < shards; i++ {
				lanes = append(lanes, sk.Shard(i))
			}
			n.SetSharding(lanes, shardOf)
			drive = func(limit sim.Time) { sk.RunParallel(limit) }
		}
		for tile := 0; tile < grid.Tiles(); tile++ {
			src := topo.Tile(tile)
			k := lanes[shardOf[src]]
			for i := 0; i < 6; i++ {
				dst := topo.Tile((tile*13 + i*7 + 1) % grid.Tiles())
				if dst == src {
					continue
				}
				dk := lanes[shardOf[dst]]
				k.AtArg(sim.Time(i*2), call, func() {
					sent := k.Now()
					n.SendArg(src, dst, 5, call, func() {
						if lat := dk.Now() - sent; lat > n.MaxLatency() {
							t.Errorf("shards=%d: delivery %d->%d took %d cycles, MaxLatency %d",
								shards, src, dst, lat, n.MaxLatency())
						}
					})
				})
			}
		}
		drive(10_000)
		if n.Stats().QueueingCycles == 0 {
			t.Fatalf("shards=%d: no link contention", shards)
		}
		if n.MaxLatency() < cfg.HopLatency() {
			t.Fatalf("shards=%d: MaxLatency %d below one hop", shards, n.MaxLatency())
		}
		return n.MaxLatency()
	}
	serial := run(0)
	if serial <= DefaultConfig().HopLatency() {
		t.Fatalf("serial MaxLatency %d never rose above one hop", serial)
	}
	if got := run(4); got != serial {
		t.Errorf("parallel MaxLatency %d, serial %d", got, serial)
	}
}
