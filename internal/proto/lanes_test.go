package proto

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestLaneOwnershipEnforced arms two lanes on a 16-tile chip and has a
// lane-0 view reach a lane-1 tile's state, through the per-tile state
// accessor and through the message pool: both must panic naming the
// tile, the view's lane and the owning lane. The same accesses pass on
// the owned tile, and on any tile from the root context.
func TestLaneOwnershipEnforced(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChipSized(t, e.mk, 16, 4, DefaultConfig())
			laneOf := topo.Partition(c.ctx.Net.Grid(), 2)
			c.ctx.SetLanes(laneOf, []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)})
			var own, other topo.Tile = -1, -1
			for i, l := range laneOf {
				if l == 0 && own < 0 {
					own = topo.Tile(i)
				}
				if l == 1 && other < 0 {
					other = topo.Tile(i)
				}
			}
			var state func(ctx *Context, at topo.Tile)
			switch eng := c.eng.(type) {
			case *Directory:
				state = func(ctx *Context, at topo.Tile) { eng.tile(ctx, at) }
			case interface {
				tile(*Context, topo.Tile) *tileState[cache.Line]
			}:
				state = func(ctx *Context, at topo.Tile) { eng.tile(ctx, at) }
			default:
				t.Fatalf("no tile state on %T", c.eng)
			}
			pool, ok := c.eng.(interface {
				msg(*Context, topo.Tile, request) *message
				putMsg(*Context, topo.Tile, *message)
			})
			if !ok {
				t.Fatalf("no message pool on %T", c.eng)
			}
			take := func(ctx *Context, at topo.Tile) { pool.putMsg(ctx, at, pool.msg(ctx, at, request{})) }

			// Disarmed, every handler runs on the root context, which
			// reaches the whole chip.
			state(c.ctx, other)
			take(c.ctx, other)

			c.ctx.ArmLanes()
			defer c.ctx.FoldLanes()
			v := c.ctx.At(own)
			state(v, own)
			take(v, own)
			want := []string{fmt.Sprintf("tile %d,", other), "lane 0", "lane 1"}
			requireOwnershipPanic(t, "state accessor", want, func() { state(v, other) })
			requireOwnershipPanic(t, "message pool", want, func() { take(v, other) })
		})
	}
}

// requireOwnershipPanic runs fn and requires it to panic with a
// message containing every string in want.
func requireOwnershipPanic(t *testing.T, what string, want []string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: a lane-0 view reached a lane-1 tile without panicking", what)
			return
		}
		msg := fmt.Sprint(r)
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("%s: panic %q does not name %q", what, msg, w)
			}
		}
	}()
	fn()
}
