package core

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Validate checks cfg for the configuration errors that would
// otherwise surface deep inside system construction (or not at all),
// and returns actionable messages naming the valid choices. NewSystem
// calls it before building anything; commands can call it early to
// reject bad flags with a usable message.
func (c Config) Validate() error {
	valid := false
	for _, p := range ProtocolNames {
		if c.Protocol == p {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("core: unknown protocol %q (valid: %s)",
			c.Protocol, strings.Join(ProtocolNames, ", "))
	}
	w, err := workload.Named(c.Workload)
	if err != nil {
		return fmt.Errorf("core: unknown workload %q (valid: %s)",
			c.Workload, strings.Join(workload.Names, ", "))
	}
	if c.Tiles <= 0 {
		return fmt.Errorf("core: Tiles = %d must be positive", c.Tiles)
	}
	if r := intSqrt(c.Tiles); r*r != c.Tiles {
		return fmt.Errorf("core: Tiles = %d is not a square; the chip is an RxR mesh (valid: 4, 16, 64, 256, ...)", c.Tiles)
	}
	if c.Areas <= 0 {
		return fmt.Errorf("core: Areas = %d must be positive", c.Areas)
	}
	if c.Tiles%c.Areas != 0 {
		return fmt.Errorf("core: Areas = %d does not divide Tiles = %d evenly (valid for %d tiles: %s)",
			c.Areas, c.Tiles, c.Tiles, divisorList(c.Tiles))
	}
	// Re-run the exact area constructions NewSystem performs, so a
	// config that validates is guaranteed to build: the hard-wired
	// coherence areas and the per-VM placement areas must both tile
	// the mesh in rectangles.
	grid := topo.SquareGrid(c.Tiles)
	if _, err := topo.NewAreas(grid, c.Areas); err != nil {
		return fmt.Errorf("core: Areas = %d cannot tile the %dx%d mesh: %w", c.Areas, grid.Cols, grid.Rows, err)
	}
	// The area-aware engines keep one provider pointer per area in a
	// fixed-size array; the directory and DiCo ignore Areas.
	if (c.Protocol == "providers" || c.Protocol == "arin") && c.Areas > cache.MaxSimAreas {
		return fmt.Errorf("core: Areas = %d exceeds the limit of %d areas that protocol %s simulates", c.Areas, cache.MaxSimAreas, c.Protocol)
	}
	if _, err := topo.NewAreas(grid, len(w.VMs)); err != nil {
		return fmt.Errorf("core: workload %q runs %d VMs, which cannot be placed on %d tiles: %w",
			c.Workload, len(w.VMs), c.Tiles, err)
	}
	if c.Shards < 0 || c.Shards > c.Tiles {
		return fmt.Errorf("core: Shards = %d must be in [0, Tiles=%d] (0 = single kernel)", c.Shards, c.Tiles)
	}
	if (c.Shards > 0) != c.Parallel {
		return fmt.Errorf("core: Shards = %d with Parallel = %v: set both (the parallel window executor on that many lanes) or neither (the serial kernel)",
			c.Shards, c.Parallel)
	}
	if err := c.Proto.CheckArrays(); err != nil {
		return fmt.Errorf("core: Proto: %w", err)
	}
	if c.RefsPerCore <= 0 {
		return fmt.Errorf("core: RefsPerCore = %d must be positive", c.RefsPerCore)
	}
	if c.WarmupRefs < 0 {
		return fmt.Errorf("core: WarmupRefs = %d must not be negative", c.WarmupRefs)
	}
	return nil
}

// intSqrt returns the integer square root of n.
func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// divisorList renders the divisors of n for error messages.
func divisorList(n int) string {
	var out []string
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, fmt.Sprint(d))
		}
	}
	return strings.Join(out, ", ")
}
