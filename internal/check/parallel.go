package check

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Fingerprint is the deterministic signature of one unchecked replay:
// the clock at the last reference retirement, the mesh activity
// counters, the miss profile and the engine's power-event counters
// (rendered sorted by name, so the struct stays comparable). Two
// replays of the same stream on either executor must produce the same
// fingerprint — the differential gate the parallel stress legs use
// where the shadow checker (hub-resident) cannot follow. The
// retirement clock is used rather than the drain clock because
// RunParallel rests at its last window's end, which trails the final
// event by up to lookahead-1 cycles by construction.
type Fingerprint struct {
	LastRetire sim.Time
	Net        mesh.Stats
	Profile    proto.MissProfile
	Counters   string
}

// RunRecordSharded replays one stream on a mini-chip with no shadow
// checker attached and returns the replay fingerprint: on the
// concurrent RunParallel window executor over shards lanes, or on one
// serial kernel when shards is 0 (the reference). Engine invariants are
// still checked at quiescence, and a stalled miss or a deadlock fails the
// run — this is the stress surface for the messageized engine
// handlers, whose cross-tile work must be shard-affine for the
// parallel executor to resolve at all.
func RunRecordSharded(protocol string, recs []Ref, tiles, areas, shards int, seed uint64) (fp Fingerprint, err error) {
	grid := topo.SquareGrid(tiles)
	areasv, err := topo.NewAreas(grid, areas)
	if err != nil {
		return fp, err
	}
	netCfg := mesh.DefaultConfig()
	// The hub lane is seeded exactly like the serial kernel.
	var sk *sim.ShardedKernel
	var hub *sim.Kernel
	if shards > 0 {
		sk = sim.NewSharded(seed, shards, netCfg.HopLatency())
		hub = sk.Hub()
	} else {
		hub = sim.NewKernel(seed)
	}
	net := mesh.New(hub, grid, netCfg)
	shardOf := make([]int, grid.Tiles())
	lanes := []*sim.Kernel{hub}
	if sk != nil {
		shardOf = topo.Partition(grid, shards)
		lanes = make([]*sim.Kernel, shards)
		for i := range lanes {
			lanes[i] = sk.Shard(i)
		}
		net.SetSharding(lanes, shardOf)
	}
	mem := memctrl.Default(grid, hub.Rand().Fork())
	ctx := &proto.Context{Kernel: hub, Net: net, Areas: areasv, Mem: mem, Cfg: TinyConfig()}
	if sk != nil {
		ctx.SetLanes(shardOf, lanes)
	}
	eng, err := proto.NewEngine(protocol, ctx)
	if err != nil {
		return fp, err
	}

	// One player per tile, started in tile order on its tile's lane: the
	// replay driver itself is shard-affine.
	order, perTile := splitTiles(recs, grid.Tiles())
	slices.Sort(order)
	ps := play(eng, order, perTile, func(t topo.Tile) *sim.Kernel { return lanes[shardOf[t]] })
	// Between windows every lane's clock sits at the group's, so the
	// hub clock is the executor's clock on both executors.
	run, pending := hub.Run, hub.Pending
	if sk != nil {
		run, pending = sk.RunParallel, sk.Pending
		ctx.ArmLanes()
		defer ctx.FoldLanes()
	}
	for pending() > 0 {
		run(hub.Now() + stallWindow)
		if err := proto.Stalled(eng, hub.Now()); err != nil {
			return fp, err
		}
	}
	if done := retiredRefs(ps); done != len(recs) {
		return fp, fmt.Errorf("check: %s retired %d of %d refs with no events pending (deadlock)\n%s",
			eng.Name(), done, len(recs), proto.FormatStalls(eng))
	}
	defer func() {
		if err == nil {
			if r := recover(); r != nil {
				err = fmt.Errorf("check: invariant failure: %v", r)
			}
		}
	}()
	eng.CheckInvariants()
	last := sim.Time(0)
	for _, p := range ps {
		last = max(last, p.last)
	}
	ctx.FoldLanes()
	names := eng.Stats().Names()
	sort.Strings(names)
	var counters strings.Builder
	for i, name := range names {
		if i > 0 {
			counters.WriteByte(' ')
		}
		fmt.Fprintf(&counters, "%s=%d", name, eng.Stats().Value(name))
	}
	return Fingerprint{LastRetire: last, Net: net.Stats(), Profile: eng.MissProfile(), Counters: counters.String()}, nil
}
