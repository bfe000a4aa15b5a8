// Minimized regression streams for protocol bugs found by the stress
// fuzzer (see stress_test.go). Each stream was shrunk from its failing
// seed with greedy record removal until minimal.
package proto_test

import (
	"testing"

	"repro/internal/check"
)

// seed139Stream reproduces an out-of-order ownership-update livelock
// in the directory protocol (stress seed 139, 16 tiles, 2 blocks):
// an owner handoff notification (old owner -> home, "owner=W") and the
// new owner's later read-downgrade notification (W -> home, "owner=-1")
// travel from different tiles and can arrive reversed. Before the
// ownerStamp guard the stale handoff clobbered the fresh downgrade,
// leaving the home forwarding every request to a tile that only holds
// a shared copy - an unbounded forward/bounce/retry loop.
var seed139Stream = []check.Ref{
	{Tile: 3, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 0, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 7, Addr: 0x1, Write: false, Gap: 2},
	{Tile: 12, Addr: 0x1, Write: true, Gap: 0},
	{Tile: 12, Addr: 0x0, Write: true, Gap: 1},
	{Tile: 2, Addr: 0x0, Write: true, Gap: 3},
	{Tile: 1, Addr: 0x1, Write: true, Gap: 0},
	{Tile: 7, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 2, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 14, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 11, Addr: 0x0, Write: false, Gap: 2},
	{Tile: 4, Addr: 0x1, Write: true, Gap: 0},
	{Tile: 15, Addr: 0x0, Write: false, Gap: 0},
	{Tile: 7, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 8, Addr: 0x0, Write: false, Gap: 0},
	{Tile: 3, Addr: 0x0, Write: true, Gap: 1},
	{Tile: 1, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 7, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 9, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 0, Addr: 0x0, Write: false, Gap: 1},
	{Tile: 11, Addr: 0x1, Write: true, Gap: 0},
	{Tile: 5, Addr: 0x1, Write: false, Gap: 1},
	{Tile: 5, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 12, Addr: 0x1, Write: false, Gap: 2},
	{Tile: 1, Addr: 0x1, Write: true, Gap: 0},
	{Tile: 8, Addr: 0x0, Write: false, Gap: 1},
	{Tile: 1, Addr: 0x0, Write: true, Gap: 0},
	{Tile: 15, Addr: 0x1, Write: false, Gap: 1},
	{Tile: 11, Addr: 0x0, Write: false, Gap: 2},
	{Tile: 12, Addr: 0x0, Write: false, Gap: 0},
	{Tile: 14, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 15, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 2, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 3, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 6, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 0, Addr: 0x1, Write: true, Gap: 0},
	{Tile: 0, Addr: 0x0, Write: false, Gap: 2},
	{Tile: 13, Addr: 0x0, Write: true, Gap: 1},
	{Tile: 0, Addr: 0x0, Write: false, Gap: 1},
	{Tile: 1, Addr: 0x0, Write: false, Gap: 0},
	{Tile: 2, Addr: 0x1, Write: true, Gap: 0},
	{Tile: 13, Addr: 0x1, Write: false, Gap: 0},
	{Tile: 4, Addr: 0x1, Write: false, Gap: 2},
	{Tile: 6, Addr: 0x0, Write: true, Gap: 0},
	{Tile: 14, Addr: 0x0, Write: false, Gap: 0},
	{Tile: 14, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 1, Addr: 0x1, Write: true, Gap: 0},
	{Tile: 0, Addr: 0x0, Write: false, Gap: 2},
	{Tile: 5, Addr: 0x0, Write: true, Gap: 0},
	{Tile: 3, Addr: 0x1, Write: false, Gap: 1},
	{Tile: 7, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 4, Addr: 0x0, Write: true, Gap: 3},
	{Tile: 4, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 3, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 4, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 11, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 6, Addr: 0x0, Write: false, Gap: 1},
	{Tile: 1, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 10, Addr: 0x0, Write: false, Gap: 1},
	{Tile: 1, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 8, Addr: 0x0, Write: true, Gap: 0},
	{Tile: 4, Addr: 0x0, Write: false, Gap: 0},
	{Tile: 6, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 1, Addr: 0x1, Write: false, Gap: 3},
	{Tile: 8, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 2, Addr: 0x0, Write: true, Gap: 3},
	{Tile: 2, Addr: 0x0, Write: true, Gap: 3},
	{Tile: 7, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 7, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 10, Addr: 0x1, Write: false, Gap: 0},
	{Tile: 9, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 9, Addr: 0x0, Write: false, Gap: 0},
	{Tile: 15, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 10, Addr: 0x0, Write: true, Gap: 0},
	{Tile: 14, Addr: 0x0, Write: true, Gap: 3},
	{Tile: 15, Addr: 0x0, Write: false, Gap: 2},
	{Tile: 10, Addr: 0x1, Write: true, Gap: 0},
	{Tile: 1, Addr: 0x0, Write: true, Gap: 1},
	{Tile: 3, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 14, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 10, Addr: 0x0, Write: false, Gap: 3},
	{Tile: 1, Addr: 0x0, Write: true, Gap: 1},
	{Tile: 3, Addr: 0x1, Write: false, Gap: 1},
	{Tile: 10, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 10, Addr: 0x0, Write: true, Gap: 2},
	{Tile: 9, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 6, Addr: 0x0, Write: false, Gap: 2},
	{Tile: 8, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 3, Addr: 0x0, Write: true, Gap: 3},
	{Tile: 8, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 6, Addr: 0x1, Write: false, Gap: 1},
	{Tile: 6, Addr: 0x0, Write: true, Gap: 3},
	{Tile: 14, Addr: 0x0, Write: false, Gap: 3},
	{Tile: 3, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 10, Addr: 0x1, Write: true, Gap: 2},
	{Tile: 8, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 3, Addr: 0x0, Write: false, Gap: 0},
	{Tile: 8, Addr: 0x1, Write: true, Gap: 3},
	{Tile: 8, Addr: 0x0, Write: true, Gap: 3},
	{Tile: 12, Addr: 0x0, Write: true, Gap: 0},
	{Tile: 8, Addr: 0x1, Write: true, Gap: 1},
	{Tile: 8, Addr: 0x1, Write: false, Gap: 0},
	{Tile: 8, Addr: 0x0, Write: false, Gap: 0},
}

// TestRegressionSeed139 runs the minimized livelock stream under the
// checker and the stall rule: it must now retire every reference.
func TestRegressionSeed139(t *testing.T) {
	if _, err := check.RunRecord("directory", seed139Stream, 16, 4, 139, false); err != nil {
		t.Fatalf("directory: %v", err)
	}
}
