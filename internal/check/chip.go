package check

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ChipConfig selects one checked mini-chip.
type ChipConfig struct {
	Protocol string
	Tiles    int
	Areas    int
	Seed     uint64
	Proto    proto.Config
}

// stallWindow is how often a checked run applies the stall rule.
const stallWindow = proto.StallBound / 4

// TinyConfig returns a deliberately small cache geometry so short
// stress streams already exercise evictions, recalls and
// directory-entry replacement.
func TinyConfig() proto.Config {
	cfg := proto.DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 8, 2
	cfg.L2Sets, cfg.L2Ways = 32, 4
	cfg.CCSets, cfg.CCWays = 16, 2
	return cfg
}

// Chip is a fully built engine with the shadow checker attached. Its
// runs apply the stall rule (proto.Stalled) between kernel windows.
type Chip struct {
	Kernel *sim.Kernel
	Ctx    *proto.Context
	Engine proto.Engine
	Shadow *Shadow
}

// NewChip builds a checked chip from cc.
func NewChip(cc ChipConfig) (*Chip, error) {
	if cc.Tiles == 0 {
		cc.Tiles = 16
	}
	if cc.Areas == 0 {
		cc.Areas = 4
	}
	if cc.Proto == (proto.Config{}) {
		cc.Proto = TinyConfig()
	}
	kernel := sim.NewKernel(cc.Seed)
	grid := topo.SquareGrid(cc.Tiles)
	areas, err := topo.NewAreas(grid, cc.Areas)
	if err != nil {
		return nil, err
	}
	net := mesh.New(kernel, grid, mesh.DefaultConfig())
	mem := memctrl.Default(grid, kernel.Rand().Fork())
	ctx := &proto.Context{Kernel: kernel, Net: net, Areas: areas, Mem: mem, Cfg: cc.Proto}
	eng, err := proto.NewEngine(cc.Protocol, ctx)
	if err != nil {
		return nil, err
	}
	sh := NewShadow(eng, kernel)
	ctx.Observer = sh
	return &Chip{Kernel: kernel, Ctx: ctx, Engine: eng, Shadow: sh}, nil
}

// runUntil runs the kernel until done holds, in windows of stallWindow
// cycles with the stall rule applied between them. It reports whether
// done holds; false with a nil error means the queue drained first.
func (c *Chip) runUntil(done func() bool) (bool, error) {
	for !done() {
		if c.Kernel.Pending() == 0 {
			return false, nil
		}
		end := c.Kernel.Now() + stallWindow
		c.Kernel.RunUntil(func() bool { return done() || c.Kernel.Now() >= end })
		if err := proto.Stalled(c.Engine, c.Kernel.Now()); err != nil {
			return false, err
		}
	}
	return true, nil
}

// finish drains residual traffic, checks that no transaction record
// or MSHR entry outlived the drain, runs the quiescent invariant
// checker, and folds the stall rule's and the shadow's verdicts into
// one error. The drain is time-bounded: residual writebacks/recalls
// that fail to settle are a liveness bug, not a reason to spin forever.
func (c *Chip) finish() (err error) {
	c.Kernel.Run(c.Kernel.Now() + 2_000_000)
	defer func() {
		if err == nil {
			if r := recover(); r != nil {
				err = fmt.Errorf("check: invariant failure: %v", r)
			}
		}
	}()
	if serr := proto.Stalled(c.Engine, c.Kernel.Now()); serr != nil {
		return serr
	}
	if c.Kernel.Pending() > 0 {
		return fmt.Errorf("check: %s residual traffic never settled (livelock), %d events pending at t=%d\n%s",
			c.Engine.Name(), c.Kernel.Pending(), c.Kernel.Now(), proto.FormatStalls(c.Engine))
	}
	if serr := c.Shadow.Err(); serr != nil {
		return serr
	}
	if qerr := proto.CheckQuiescent(c.Engine); qerr != nil {
		return qerr
	}
	c.Engine.CheckInvariants()
	return nil
}

// RunConcurrent drives the stream with every tile issuing its own
// references in order (gaps honored), all tiles concurrently — the
// racy mode. It returns the first stall, shadow-checker, deadlock or
// invariant error.
func (c *Chip) RunConcurrent(recs []Ref) error {
	tiles, perTile := splitTiles(recs, c.Ctx.NumTiles())
	ps := play(c.Engine, tiles, perTile, func(topo.Tile) *sim.Kernel { return c.Kernel })
	done, err := c.runUntil(func() bool { return retiredRefs(ps) == len(recs) })
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("check: %s deadlocked at t=%d with %d/%d refs retired\n%s",
			c.Engine.Name(), c.Kernel.Now(), retiredRefs(ps), len(recs), proto.FormatStalls(c.Engine))
	}
	return c.finish()
}

// RunSerial drives the stream one reference at a time, each retiring
// before the next issues — a deterministic serialization shared by
// every protocol, so final shadow images must match exactly across
// protocols.
func (c *Chip) RunSerial(recs []Ref) error {
	for i, r := range recs {
		retired := false
		c.Engine.Access(r.Tile, r.Addr, r.Write, func() { retired = true })
		done, err := c.runUntil(func() bool { return retired })
		if err != nil {
			return err
		}
		if !done {
			return fmt.Errorf("check: %s deadlocked on record %d (tile %d %v %#x)\n%s",
				c.Engine.Name(), i, r.Tile, r.Write, r.Addr, proto.FormatStalls(c.Engine))
		}
	}
	return c.finish()
}

// RunRecord runs one protocol over one stream in the given mode and
// returns the final shadow image (differential-testing helper).
func RunRecord(protocol string, recs []Ref, tiles, areas int, seed uint64, serial bool) (map[cache.Addr]Block, error) {
	c, err := NewChip(ChipConfig{Protocol: protocol, Tiles: tiles, Areas: areas, Seed: seed})
	if err != nil {
		return nil, err
	}
	if serial {
		err = c.RunSerial(recs)
	} else {
		err = c.RunConcurrent(recs)
	}
	return c.Shadow.Image(), err
}
