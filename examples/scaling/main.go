// Scaling: explore the storage-overhead trade-off of Table VII — how
// the coherence storage of each protocol scales with core count and
// area count, and where each protocol's sweet spot lies.
//
//	go run ./examples/scaling
package main

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/proto"
	"repro/internal/storage"
)

func main() {
	fmt.Println("Coherence storage overhead (share of data storage) and tag leakage per tile")
	fmt.Println()
	tile := proto.DefaultConfig() // Table III's tile
	paper := tile.Storage(64, 4)
	leak := power.DefaultLeakage(paper)
	for _, cores := range []int{64, 256, 1024} {
		fmt.Printf("--- %d cores ---\n", cores)
		sweep, areas := storage.OverheadSweep(paper, cores)
		fmt.Printf("%-16s", "areas:")
		for _, a := range areas {
			fmt.Printf("%9d", a)
		}
		fmt.Println()
		for _, p := range storage.All {
			fmt.Printf("%-16s", p.String())
			for _, v := range sweep[p] {
				fmt.Printf("%8.1f%%", v*100)
			}
			fmt.Println()
		}
		// The protocol with the least tag leakage at 4 areas.
		best, bestMW := storage.Directory, 1e18
		for _, p := range storage.All {
			if cores%4 != 0 {
				continue
			}
			_, tag := leak.TileLeakage(p, tile.Storage(cores, 4))
			if tag < bestMW {
				bestMW, best = tag, p
			}
		}
		fmt.Printf("lowest tag leakage at 4 areas: %s (%.1f mW/tile)\n\n", best, bestMW)
	}
	fmt.Println("Reading Table VII's trade-off: smaller areas put providers closer to")
	fmt.Println("requestors but make finding one less likely; DiCo-Providers' overhead")
	fmt.Println("grows with the area count (one ProPo per area) while DiCo-Arin's dips")
	fmt.Println("at intermediate area counts.")
}
