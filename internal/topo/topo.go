// Package topo describes the spatial organization of the chip: the tile
// grid, the static division of the chip into areas (Section III of the
// paper), and the placement of virtual machines onto tiles (Figure 6).
package topo

import "fmt"

// Tile identifies one tile of the chip, numbered row-major on the mesh.
type Tile int

// Grid is a rectangular tile arrangement.
type Grid struct {
	Cols, Rows int
}

// NewGrid returns a grid of the given dimensions.
func NewGrid(cols, rows int) Grid {
	if cols <= 0 || rows <= 0 {
		panic("topo: grid dimensions must be positive")
	}
	return Grid{Cols: cols, Rows: rows}
}

// SquareGrid returns the most square grid with n tiles: cols*rows == n
// with cols >= rows and cols/rows minimal. It panics if n has no such
// factorization with both sides > 0 (never, for n >= 1).
func SquareGrid(n int) Grid {
	if n <= 0 {
		panic("topo: grid size must be positive")
	}
	best := Grid{Cols: n, Rows: 1}
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			best = Grid{Cols: n / r, Rows: r}
		}
	}
	return best
}

// Tiles returns the number of tiles in the grid.
func (g Grid) Tiles() int { return g.Cols * g.Rows }

// Coord returns the (x, y) mesh coordinates of t.
func (g Grid) Coord(t Tile) (x, y int) {
	return int(t) % g.Cols, int(t) / g.Cols
}

// At returns the tile at mesh coordinates (x, y).
func (g Grid) At(x, y int) Tile {
	return Tile(y*g.Cols + x)
}

// Contains reports whether t is a valid tile of the grid.
func (g Grid) Contains(t Tile) bool {
	return t >= 0 && int(t) < g.Tiles()
}

// Hops returns the Manhattan distance between two tiles: the number of
// mesh links a message traverses between them under XY routing.
func (g Grid) Hops(a, b Tile) int {
	ax, ay := g.Coord(a)
	bx, by := g.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Partition divides the grid's tiles into n contiguous row-major
// bands for conservative-PDES sharding: shard i owns tiles
// [i*T/n, (i+1)*T/n). Contiguous row-major ranges keep each shard a
// horizontal band (exact rows when n divides Rows), which minimizes
// the number of mesh links crossing shard boundaries — every boundary
// crossing costs a conservative synchronization, so fewer is faster.
// The returned slice maps tile -> shard. n must be in [1, Tiles()].
func Partition(grid Grid, n int) []int {
	if n < 1 || n > grid.Tiles() {
		panic(fmt.Sprintf("topo: cannot partition %d tiles into %d shards", grid.Tiles(), n))
	}
	shardOf := make([]int, grid.Tiles())
	for t := range shardOf {
		shardOf[t] = t * n / grid.Tiles()
	}
	return shardOf
}

// Areas is the static, hard-wired division of the chip into equal
// areas. Areas are as square as possible (the paper uses four 4x4
// areas on the 8x8 chip).
type Areas struct {
	Grid     Grid
	Count    int
	areaOf   []int // tile -> area
	index    []int // tile -> position within its area's tile list
	tiles    [][]Tile
	areaCols int // areas per grid row of areas
	areaRows int
	tileCols int // tiles per area, horizontally
	tileRows int
}

// NewAreas divides grid into count areas. count must divide the tile
// count and admit a rectangular tiling of the grid.
func NewAreas(grid Grid, count int) (*Areas, error) {
	if count <= 0 {
		return nil, fmt.Errorf("topo: area count %d must be positive", count)
	}
	if grid.Tiles()%count != 0 {
		return nil, fmt.Errorf("topo: %d areas do not divide %d tiles", count, grid.Tiles())
	}
	per := grid.Tiles() / count
	// Choose the most square per-area tile block that tiles the grid.
	bestW, bestH := 0, 0
	bestAspect := 1 << 30
	for h := 1; h <= per; h++ {
		if per%h != 0 {
			continue
		}
		w := per / h
		if grid.Cols%w != 0 || grid.Rows%h != 0 {
			continue
		}
		aspect := abs(w - h)
		if aspect < bestAspect {
			bestAspect, bestW, bestH = aspect, w, h
		}
	}
	if bestW == 0 {
		return nil, fmt.Errorf("topo: cannot tile %dx%d grid into %d rectangular areas",
			grid.Cols, grid.Rows, count)
	}
	a := &Areas{
		Grid:     grid,
		Count:    count,
		areaOf:   make([]int, grid.Tiles()),
		index:    make([]int, grid.Tiles()),
		tiles:    make([][]Tile, count),
		areaCols: grid.Cols / bestW,
		areaRows: grid.Rows / bestH,
		tileCols: bestW,
		tileRows: bestH,
	}
	for t := Tile(0); int(t) < grid.Tiles(); t++ {
		x, y := grid.Coord(t)
		area := (y/bestH)*a.areaCols + x/bestW
		a.areaOf[t] = area
		a.index[t] = len(a.tiles[area])
		a.tiles[area] = append(a.tiles[area], t)
	}
	return a, nil
}

// MustAreas is NewAreas but panics on error; for configurations known
// to be valid at compile time.
func MustAreas(grid Grid, count int) *Areas {
	a, err := NewAreas(grid, count)
	if err != nil {
		panic(err)
	}
	return a
}

// Of returns the area index of tile t.
func (a *Areas) Of(t Tile) int { return a.areaOf[t] }

// TilesIn returns the tiles belonging to area (shared slice; do not
// mutate).
func (a *Areas) TilesIn(area int) []Tile { return a.tiles[area] }

// TilesPerArea returns the number of tiles in each area.
func (a *Areas) TilesPerArea() int { return a.Grid.Tiles() / a.Count }

// IndexInArea returns the position of t within its area's tile list,
// i.e. the value a ProPo pointer would store.
func (a *Areas) IndexInArea(t Tile) int { return a.index[t] }

// Placement maps virtual machines to tiles.
type Placement struct {
	NumVMs int
	vmOf   []int // tile -> VM
	tiles  [][]Tile
}

// VMOf returns the VM running on tile t.
func (p *Placement) VMOf(t Tile) int { return p.vmOf[t] }

// TilesOf returns the tiles assigned to vm (shared slice; do not
// mutate).
func (p *Placement) TilesOf(vm int) []Tile { return p.tiles[vm] }

// MatchedPlacement assigns VM i exactly the tiles of area i: the
// paper's default configuration in which the OS/hypervisor schedules
// each VM into its own area.
func MatchedPlacement(a *Areas) *Placement {
	p := &Placement{
		NumVMs: a.Count,
		vmOf:   make([]int, a.Grid.Tiles()),
		tiles:  make([][]Tile, a.Count),
	}
	for area := 0; area < a.Count; area++ {
		for _, t := range a.TilesIn(area) {
			p.vmOf[t] = area
			p.tiles[area] = append(p.tiles[area], t)
		}
	}
	return p
}

// AlternativePlacement is the Figure 6 "-alt" configuration: each VM's
// tiles straddle area boundaries. We realize it by assigning VMs in
// horizontal bands of rows, which (with square areas) guarantees every
// VM spans at least two areas.
func AlternativePlacement(a *Areas) *Placement {
	g := a.Grid
	p := &Placement{
		NumVMs: a.Count,
		vmOf:   make([]int, g.Tiles()),
		tiles:  make([][]Tile, a.Count),
	}
	perVM := g.Tiles() / a.Count
	// Row-major bands, shifted by half an area width so bands cross
	// vertical area boundaries as in Figure 6.
	shift := a.tileCols / 2
	for t := Tile(0); int(t) < g.Tiles(); t++ {
		x, y := g.Coord(t)
		x = (x + shift) % g.Cols
		linear := y*g.Cols + x
		vm := linear / perVM
		if vm >= a.Count {
			vm = a.Count - 1
		}
		p.vmOf[t] = vm
		p.tiles[vm] = append(p.tiles[vm], t)
	}
	return p
}

// SpansAreas reports whether vm occupies tiles in more than one area.
func (p *Placement) SpansAreas(a *Areas, vm int) bool {
	seen := -1
	for _, t := range p.tiles[vm] {
		ar := a.Of(t)
		if seen == -1 {
			seen = ar
		} else if ar != seen {
			return true
		}
	}
	return false
}
