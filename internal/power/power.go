// Package power models the chip's power consumption the way the paper
// does: CACTI-style leakage and per-access energies for the cache
// structures (Section V-A, 32 nm), and the Barrow-Williams model for
// the network (routing a message costs as much as reading an L1 block
// and four times as much as transmitting a flit over a link).
//
// All figures in the paper are *normalized* (to the directory
// protocol's cache dynamic power), so the absolute calibration matters
// only for the leakage table (Table VI), which reports milliwatts. The
// leakage model is therefore fit to the directory row of Table VI and
// applied unchanged to the other protocols.
package power

import (
	"math"

	"repro/internal/storage"
)

// Event counter names shared between the protocol engines (which
// increment them) and the dynamic power model (which weighs them).
// The breakdown classes follow Figure 8a.
const (
	EvL1TagRead   = "l1.tag.read"   // L1 tag lookup (incl. coherence info)
	EvL1TagWrite  = "l1.tag.write"  // L1 state/coherence-info update
	EvL1DataRead  = "l1.data.read"  // L1 block read (hit or supplying data)
	EvL1DataWrite = "l1.data.write" // L1 block fill or store
	EvL2TagRead   = "l2.tag.read"
	EvL2TagWrite  = "l2.tag.write"
	EvL2DataRead  = "l2.data.read"
	EvL2DataWrite = "l2.data.write"
	EvDirRead     = "dir.read"  // directory-cache lookup (directory protocol)
	EvDirWrite    = "dir.write" // directory-cache update
	EvL1CAccess   = "l1c.access"
	EvL1CUpdate   = "l1c.update"
	EvL2CAccess   = "l2c.access"
	EvL2CUpdate   = "l2c.update"
)

// LeakageModel is a linear bits-to-milliwatts model with separate
// coefficients for tag arrays (associative, more ports) and data
// arrays.
type LeakageModel struct {
	TagNanoWattPerBit  float64
	DataNanoWattPerBit float64
}

// DefaultLeakage returns the model fit to Table VI's directory row on
// paper, the paper's chip: 37 mW of tag leakage over the directory's
// 1,556,480 tag-array bits and 202 mW (= 239-37) over the 9,437,184
// data-array bits of a tile.
func DefaultLeakage(paper storage.Config) LeakageModel {
	tagBits := float64(storage.TagArrayBits(storage.Directory, paper))
	dataBits := float64(storage.DataArrayBits(paper))
	return LeakageModel{
		TagNanoWattPerBit:  37.0 * 1e6 / tagBits, // mW -> nW
		DataNanoWattPerBit: 202.0 * 1e6 / dataBits,
	}
}

// TileLeakage returns the leakage power of one tile's caches in
// milliwatts: total and the tag-array share (the two columns of
// Table VI).
func (m LeakageModel) TileLeakage(p storage.Protocol, c storage.Config) (totalMW, tagMW float64) {
	tagMW = m.TagNanoWattPerBit * float64(storage.TagArrayBits(p, c)) / 1e6
	dataMW := m.DataNanoWattPerBit * float64(storage.DataArrayBits(c)) / 1e6
	return tagMW + dataMW, tagMW
}

// EnergyModel produces per-access energies for the storage arrays.
// Energy grows linearly with the bits moved per access and with the
// square root of the array size (bitline/wordline length), which is
// the dominant CACTI trend.
type EnergyModel struct {
	// PJPerBit is the energy to read one bit from a 1 KB array.
	PJPerBit float64
	// SizeExponent scales energy with (arrayKB)^SizeExponent.
	SizeExponent float64
}

// DefaultEnergy returns the calibration used throughout: 0.02 pJ/bit
// at 1 KB with sqrt size scaling. Absolute values cancel in the
// paper's normalized figures; the ratios (L2 read > L1 read, wider
// tags cost more) are what matter.
func DefaultEnergy() EnergyModel {
	return EnergyModel{PJPerBit: 0.02, SizeExponent: 0.5}
}

// AccessEnergy returns the energy in pJ of moving bitsAccessed bits
// in/out of an array of arrayKB kilobytes.
func (m EnergyModel) AccessEnergy(arrayKB float64, bitsAccessed int) float64 {
	if arrayKB < 0.25 {
		arrayKB = 0.25
	}
	return m.PJPerBit * float64(bitsAccessed) * math.Pow(arrayKB, m.SizeExponent)
}

// TileEnergies holds the per-event energies (pJ) of one tile under a
// given protocol. Tag energies depend on the protocol because the
// coherence information lives in the tag arrays.
type TileEnergies struct {
	L1TagRead, L1TagWrite   float64
	L1DataRead, L1DataWrite float64
	L2TagRead, L2TagWrite   float64
	L2DataRead, L2DataWrite float64
	DirRead, DirWrite       float64
	L1CAccess, L1CUpdate    float64
	L2CAccess, L2CUpdate    float64
	Router, Flit            float64
}

// Energies computes the event energy table for protocol p on geometry
// c. A lookup compares every way of the set; the directory cache is
// priced with c.CCWays ways. Network energies follow [22]: Router ==
// L1 block read, Flit == Router / 4.
func Energies(p storage.Protocol, c storage.Config, m EnergyModel) TileEnergies {
	coh := make(map[string]storage.Structure)
	for _, s := range storage.CoherenceStructures(p, c) {
		coh[s.Name] = s
	}
	// Per-entry coherence bits co-located with the L1 and L2 tags.
	l1CohBits, l2CohBits := 0, 0
	if s, ok := coh["L1 dir. inf."]; ok {
		l1CohBits = s.EntryBits
	}
	if s, ok := coh["L2 dir. inf."]; ok && p != storage.Directory {
		l2CohBits = s.EntryBits
	}
	if p == storage.Directory {
		// The directory's full-map vector lives with the L2 tags too.
		l2CohBits = coh["L2 dir. inf."].EntryBits
	}

	l1TagEntry := c.L1TagBits + l1CohBits
	l2TagEntry := c.L2TagBits + l2CohBits
	l1TagKB := float64(l1TagEntry*c.L1Entries) / 8 / 1024
	l2TagKB := float64(l2TagEntry*c.L2Entries) / 8 / 1024
	l1DataKB := float64(c.BlockBits*c.L1Entries) / 8 / 1024
	l2DataKB := float64(c.BlockBits*c.L2Entries) / 8 / 1024

	e := TileEnergies{
		// A tag lookup matches every way of the set against the
		// address tag (plus state bits) and then reads the matching
		// way's co-located coherence information once; an update
		// rewrites one full entry. The array size (and hence bitline
		// length) still includes the coherence information, which is
		// how the wider DiCo-family tags cost more per access.
		L1TagRead:   m.AccessEnergy(l1TagKB, c.L1Ways*(c.L1TagBits+2)+l1CohBits),
		L1TagWrite:  m.AccessEnergy(l1TagKB, l1TagEntry),
		L1DataRead:  m.AccessEnergy(l1DataKB, c.BlockBits),
		L1DataWrite: m.AccessEnergy(l1DataKB, c.BlockBits),
		L2TagRead:   m.AccessEnergy(l2TagKB, c.L2Ways*(c.L2TagBits+2)+l2CohBits),
		L2TagWrite:  m.AccessEnergy(l2TagKB, l2TagEntry),
		L2DataRead:  m.AccessEnergy(l2DataKB, c.BlockBits),
		L2DataWrite: m.AccessEnergy(l2DataKB, c.BlockBits),
	}
	if s, ok := coh["Dir. cache"]; ok {
		kb := s.KB()
		e.DirRead = m.AccessEnergy(kb, c.CCWays*s.EntryBits)
		e.DirWrite = m.AccessEnergy(kb, s.EntryBits)
	}
	if s, ok := coh["L1C$"]; ok {
		kb := s.KB()
		e.L1CAccess = m.AccessEnergy(kb, c.CCWays*s.EntryBits)
		e.L1CUpdate = m.AccessEnergy(kb, s.EntryBits)
	}
	if s, ok := coh["L2C$"]; ok {
		kb := s.KB()
		e.L2CAccess = m.AccessEnergy(kb, c.CCWays*s.EntryBits)
		e.L2CUpdate = m.AccessEnergy(kb, s.EntryBits)
	}
	// Barrow-Williams: routing == L1 block read; flit == routing / 4.
	e.Router = e.L1DataRead
	e.Flit = e.Router / 4
	return e
}
