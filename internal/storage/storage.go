// Package storage computes the bit-exact sizes of every coherence
// structure of the four protocols, reproducing Table V (per-tile memory
// overhead) and Table VII (overhead sweep over cores and areas) of the
// paper analytically. The tag-array bit counts it produces also drive
// the leakage model of internal/power (Table VI).
package storage

import (
	"fmt"
	"math/bits"
)

// Protocol selects one of the four evaluated coherence protocols.
type Protocol int

// The four protocols of the paper.
const (
	Directory Protocol = iota
	DiCo
	DiCoProviders
	DiCoArin
)

// String returns the paper's protocol name.
func (p Protocol) String() string {
	switch p {
	case Directory:
		return "Directory"
	case DiCo:
		return "DiCo"
	case DiCoProviders:
		return "DiCo-Providers"
	case DiCoArin:
		return "DiCo-Arin"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// All lists the protocols in the paper's presentation order.
var All = []Protocol{Directory, DiCo, DiCoProviders, DiCoArin}

// Config holds the per-tile geometry of Section V-B. proto.Config.Storage
// derives it from the simulated tile, so the tables and the energy model
// price the arrays a run builds.
type Config struct {
	Tiles int // ntc
	Areas int // na

	L1Entries  int
	L2Entries  int
	CCEntries  int // L1C$ / L2C$ entries
	DirEntries int // NCID directory-cache entries (directory protocol)

	// Ways per set: what a tag lookup compares (internal/power). The
	// directory cache is priced with CCWays.
	L1Ways, L2Ways, CCWays int

	BlockBits  int
	L1TagBits  int
	L2TagBits  int
	DirTagBits int
	L1CTagBits int
	L2CTagBits int
}

// TilesPerArea returns nta.
func (c Config) TilesPerArea() int { return c.Tiles / c.Areas }

// GenPoBits returns the size of a general pointer: log2(ntc).
func (c Config) GenPoBits() int { return ceilLog2(c.Tiles) }

// ProPoBits returns the size of a pointer-to-provider: log2(nta).
func (c Config) ProPoBits() int { return ceilLog2(c.TilesPerArea()) }

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Structure is one storage array of a tile.
type Structure struct {
	Name      string
	EntryBits int
	Entries   int
}

// Bits returns the structure's total size in bits.
func (s Structure) Bits() int { return s.EntryBits * s.Entries }

// KB returns the structure's total size in kilobytes.
func (s Structure) KB() float64 { return float64(s.Bits()) / 8 / 1024 }

// DataStructures returns the data-holding arrays of a tile (tag +
// block for L1 and L2), which are identical across protocols. Table V
// reports these as 134.25 KB (L1) and 1058 KB (L2).
func DataStructures(c Config) []Structure {
	return []Structure{
		{Name: "L1 cache", EntryBits: c.L1TagBits + c.BlockBits, Entries: c.L1Entries},
		{Name: "L2 cache", EntryBits: c.L2TagBits + c.BlockBits, Entries: c.L2Entries},
	}
}

// CoherenceStructures returns the per-tile coherence arrays of
// protocol p, exactly as Table V itemizes them:
//
//   - Directory: full-map vector per L2 entry + NCID directory cache
//     (DirTag + full-map + GenPo).
//   - DiCo: full-map vector per L1 and L2 entry + L1C$ + L2C$.
//   - DiCo-Providers: per L1 entry an area sharer vector (nta bits),
//     one ProPo+valid per remote area; per L2 entry one ProPo+valid per
//     area; + L1C$ + L2C$.
//   - DiCo-Arin: per L1 entry an area sharer vector; per L2 entry
//     max(nta + log2(na), na x ProPo) bits (the sharer vector and the
//     provider pointers are never needed at the same time); + L1C$ +
//     L2C$.
func CoherenceStructures(p Protocol, c Config) []Structure {
	nta := c.TilesPerArea()
	genPo := c.GenPoBits()
	proPo := c.ProPoBits()
	l1c := Structure{Name: "L1C$", EntryBits: c.L1CTagBits + genPo + 1, Entries: c.CCEntries}
	l2c := Structure{Name: "L2C$", EntryBits: c.L2CTagBits + genPo + 1, Entries: c.CCEntries}
	switch p {
	case Directory:
		return []Structure{
			{Name: "L2 dir. inf.", EntryBits: c.Tiles, Entries: c.L2Entries},
			{Name: "Dir. cache", EntryBits: c.DirTagBits + c.Tiles + genPo, Entries: c.DirEntries},
		}
	case DiCo:
		return []Structure{
			{Name: "L1 dir. inf.", EntryBits: c.Tiles, Entries: c.L1Entries},
			{Name: "L2 dir. inf.", EntryBits: c.Tiles, Entries: c.L2Entries},
			l1c,
			l2c,
		}
	case DiCoProviders:
		return []Structure{
			{Name: "L1 dir. inf.", EntryBits: nta + (c.Areas-1)*(proPo+1), Entries: c.L1Entries},
			{Name: "L2 dir. inf.", EntryBits: c.Areas * (proPo + 1), Entries: c.L2Entries},
			l1c,
			l2c,
		}
	case DiCoArin:
		ownerForm := nta + ceilLog2(c.Areas)
		interForm := c.Areas * proPo
		entry := ownerForm
		if interForm > entry {
			entry = interForm
		}
		return []Structure{
			{Name: "L1 dir. inf.", EntryBits: nta, Entries: c.L1Entries},
			{Name: "L2 dir. inf.", EntryBits: entry, Entries: c.L2Entries},
			l1c,
			l2c,
		}
	}
	panic("storage: unknown protocol")
}

// CoherenceBits returns the total coherence storage of a tile in bits.
func CoherenceBits(p Protocol, c Config) int {
	total := 0
	for _, s := range CoherenceStructures(p, c) {
		total += s.Bits()
	}
	return total
}

// DataBits returns the total data storage (tags + blocks) in bits.
func DataBits(c Config) int {
	total := 0
	for _, s := range DataStructures(c) {
		total += s.Bits()
	}
	return total
}

// Overhead returns the coherence storage overhead relative to the data
// storage — the percentage columns of Tables V and VII (as a fraction,
// e.g. 0.1256 for the directory at 64 tiles).
func Overhead(p Protocol, c Config) float64 {
	return float64(CoherenceBits(p, c)) / float64(DataBits(c))
}

// TagArrayBits returns the bits held in the tile's tag arrays: address
// tags plus all coherence information. This is what Table VI's "Tag
// Leakage Power" column covers.
func TagArrayBits(p Protocol, c Config) int {
	tags := c.L1TagBits*c.L1Entries + c.L2TagBits*c.L2Entries
	return tags + CoherenceBits(p, c)
}

// DataArrayBits returns the bits of the block data arrays alone.
func DataArrayBits(c Config) int {
	return c.BlockBits * (c.L1Entries + c.L2Entries)
}

// OverheadSweep computes Table VII: for each protocol, the overhead of
// base's per-tile geometry on a chip of tiles tiles at each area count
// (powers of two from 2 to tiles). Returned as
// overhead[protocol][areaIndex], with the area counts in the second
// return value.
func OverheadSweep(base Config, tiles int) (map[Protocol][]float64, []int) {
	var areaCounts []int
	for a := 2; a <= tiles; a *= 2 {
		areaCounts = append(areaCounts, a)
	}
	out := make(map[Protocol][]float64, len(All))
	for _, p := range All {
		row := make([]float64, len(areaCounts))
		for i, a := range areaCounts {
			c := base
			c.Tiles, c.Areas = tiles, a
			row[i] = Overhead(p, c)
		}
		out[p] = row
	}
	return out, areaCounts
}
