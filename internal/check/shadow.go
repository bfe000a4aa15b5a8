// Package check provides runtime correctness tooling for the four
// coherence engines: a shadow-memory SWMR/data-value checker that
// verifies every retired reference against a per-block version
// counter, the checked chip whose runs apply the stall rule, and a
// high-conflict stress/differential harness for hunting transient-race
// bugs.
package check

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topo"
)

// maxRecorded bounds the violation log; further violations only count.
const maxRecorded = 16

// Block is the shadow image of one block: how many stores retired to
// it and which tile retired the last one.
type Block struct {
	Ver        uint64
	LastWriter topo.Tile
}

// blockShadow tracks one block. ver counts retired stores. seen[t]
// (valid when bit t of seenMask is set) is the store version tile t's
// cached copy corresponds to; a later hit by t must still see the
// latest version or t missed an invalidation.
type blockShadow struct {
	ver        uint64
	lastWriter topo.Tile
	seenMask   uint64
	seen       [64]uint64
}

// Shadow is a proto.Observer implementing the shadow-memory checker.
// It never schedules events, never mutates engine state, and reads
// cache contents only through side-effect-free Peek scans, so an
// attached Shadow cannot perturb the simulation it is checking.
//
// What it verifies, and the deliberate relaxations:
//
//   - Store retire: no other tile may hold a valid L1 copy (SWMR), and
//     the writer's own copy, if present, must be in an owner state. A
//     home L2 copy is allowed: the directory protocol legally keeps a
//     stale L2 line below an E-state owner and never supplies it while
//     the owner pointer is set.
//   - Load hit: the tile's copy must correspond to the latest store
//     version — a stale hit means an invalidation was lost.
//   - Load miss retire: record that the tile now holds the latest
//     version (suppliers register the reader as a sharer before
//     sending data, so a fill that races a later store is always
//     invalidated in flight and arrives here with invalidated=true,
//     exempt because the read serialized before that store), and check
//     owner uniqueness (at most one owner-state copy; an M/E copy must
//     be the sole L1 holder).
//   - References that an in-flight invalidation hit skip the copy
//     scans: the line is already gone or about to be dropped.
type Shadow struct {
	eng proto.Engine
	k   *sim.Kernel

	blocks     map[cache.Addr]*blockShadow
	recorded   []string
	violations uint64
}

// NewShadow builds a checker for eng. Install it with ctx.Observer =
// shadow before driving any accesses.
func NewShadow(eng proto.Engine, k *sim.Kernel) *Shadow {
	return &Shadow{eng: eng, k: k, blocks: make(map[cache.Addr]*blockShadow)}
}

func (s *Shadow) block(a cache.Addr) *blockShadow {
	b := s.blocks[a]
	if b == nil {
		b = &blockShadow{lastWriter: -1}
		s.blocks[a] = b
	}
	return b
}

func (s *Shadow) violatef(addr cache.Addr, format string, args ...any) {
	s.violations++
	if len(s.recorded) < maxRecorded {
		msg := fmt.Sprintf("t=%d %s block %#x: %s",
			s.k.Now(), s.eng.Name(), addr, fmt.Sprintf(format, args...))
		s.recorded = append(s.recorded, msg+"\n"+proto.FormatBlockState(s.eng, addr))
	}
}

// Retired implements proto.Observer.
func (s *Shadow) Retired(tile topo.Tile, addr cache.Addr, write, hit, invalidated bool) {
	b := s.block(addr)
	if write {
		b.ver++
		b.lastWriter = tile
		b.seenMask = 1 << uint(tile)
		b.seen[tile] = b.ver
		if invalidated {
			// A chip-wide invalidation (directory-entry eviction or a
			// broadcast) raced the upgrade; every copy including the
			// writer's may already be gone. Serialization still holds.
			return
		}
		writerCopy := false
		s.eng.ForEachCopy(addr, func(ci proto.CopyInfo) {
			if ci.L2 {
				return // stale home L2 copies are legal (NCID/E-state)
			}
			if ci.Tile == tile {
				writerCopy = true
				if !ci.Owner {
					s.violatef(addr, "store v%d retired at tile %d but its copy is not owner-state (%d)",
						b.ver, tile, ci.State)
				}
				return
			}
			s.violatef(addr, "SWMR: store v%d retired at tile %d but tile %d still holds a copy (state %d)",
				b.ver, tile, ci.Tile, ci.State)
		})
		if !writerCopy {
			s.violatef(addr, "store v%d retired at tile %d with no cached copy", b.ver, tile)
		}
		return
	}
	if hit {
		if b.seenMask&(1<<uint(tile)) != 0 {
			if got := b.seen[tile]; got != b.ver {
				s.violatef(addr, "stale hit: tile %d read v%d but latest store is v%d (by tile %d)",
					tile, got, b.ver, b.lastWriter)
			}
		} else {
			// Copy acquired outside a tracked fill (e.g. before the
			// checker attached); trust it from here on.
			b.seenMask |= 1 << uint(tile)
			b.seen[tile] = b.ver
		}
		return
	}
	if invalidated {
		// Fill raced a store and is dropped: the read serialized before
		// that store, so no version assertion; the copy is gone.
		b.seenMask &^= 1 << uint(tile)
		return
	}
	// Fresh fill: the supplier held (and the home serialized) the
	// latest version. Verify owner uniqueness across all settled
	// copies: a Pending copy is mid-upgrade (its store has not retired
	// yet — it still awaits acks, so it serializes after this read)
	// and its M state is transient, not a violation.
	owners, holders := 0, 0
	exclusiveAt := topo.Tile(-1)
	s.eng.ForEachCopy(addr, func(ci proto.CopyInfo) {
		if ci.L2 {
			return
		}
		holders++
		if ci.Pending {
			return
		}
		if ci.Owner {
			owners++
		}
		if ci.Exclusive {
			exclusiveAt = ci.Tile
		}
	})
	if owners > 1 {
		s.violatef(addr, "load fill at tile %d sees %d owner-state copies", tile, owners)
	}
	if exclusiveAt >= 0 && holders > 1 {
		s.violatef(addr, "load fill at tile %d coexists with an M/E copy at tile %d (%d holders)",
			tile, exclusiveAt, holders)
	}
	b.seenMask |= 1 << uint(tile)
	b.seen[tile] = b.ver
}

// Violations returns how many checks failed.
func (s *Shadow) Violations() uint64 { return s.violations }

// Err returns nil if every check passed, else an error carrying the
// first recorded violations.
func (s *Shadow) Err() error {
	if s.violations == 0 {
		return nil
	}
	msg := s.recorded[0]
	if s.violations > 1 {
		msg = fmt.Sprintf("%s\n... and %d more violations", msg, s.violations-1)
	}
	return fmt.Errorf("check: %d coherence violations:\n%s", s.violations, msg)
}

// Image returns the final shadow memory image: per-block retired
// store count and last writer. Blocks never written are omitted.
func (s *Shadow) Image() map[cache.Addr]Block {
	img := make(map[cache.Addr]Block, len(s.blocks))
	for a, b := range s.blocks {
		if b.ver > 0 {
			img[a] = Block{Ver: b.ver, LastWriter: b.lastWriter}
		}
	}
	return img
}
