package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/topo"
)

const streamGolden = "testdata/stream_golden.json"

// streamPrint is one workload's stream fingerprint: a SHA-256 over the
// (addr, write, gap) of every reference, plus the mapper's page counts
// and dedup savings after the run.
type streamPrint struct {
	Stream       string
	PrivatePages uint64
	SharedPages  uint64
	DedupRefs    uint64
	CoWBreaks    uint64
	SavedFrac    float64
}

// streamRefsPerTile is the number of Next calls per tile, issued round
// robin across the chip so cross-VM copy-on-write breaks interleave.
const streamRefsPerTile = 2100

func fingerprintStream(name string) streamPrint {
	areas := topo.MustAreas(topo.NewGrid(8, 8), 4)
	mapper := memctrl.NewMapper(true)
	g := NewGenerator(MustNamed(name), topo.MatchedPlacement(areas), mapper, sim.NewRand(1))
	h := sha256.New()
	var buf [17]byte
	for i := 0; i < streamRefsPerTile; i++ {
		for tile := 0; tile < 64; tile++ {
			a := g.Next(topo.Tile(tile))
			binary.LittleEndian.PutUint64(buf[0:], uint64(a.Addr))
			buf[8] = 0
			if a.Write {
				buf[8] = 1
			}
			binary.LittleEndian.PutUint64(buf[9:], uint64(a.Gap))
			h.Write(buf[:])
		}
	}
	return streamPrint{
		Stream:       hex.EncodeToString(h.Sum(nil)),
		PrivatePages: mapper.PrivatePages,
		SharedPages:  mapper.SharedPages,
		DedupRefs:    mapper.DedupRefs,
		CoWBreaks:    mapper.CoWBreaks,
		SavedFrac:    mapper.SavedFraction(),
	}
}

// TestStreamGolden pins every workload's reference stream at seed 1,
// and the page table the generator builds, against a recorded
// fingerprint (run with STREAM_UPDATE=1 to regenerate after an
// intentional behaviour change). A page-table or translation rewrite
// must leave it bit-identical.
func TestStreamGolden(t *testing.T) {
	got := map[string]streamPrint{}
	for _, name := range Names {
		got[name] = fingerprintStream(name)
	}
	if os.Getenv("STREAM_UPDATE") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", streamGolden)
		return
	}
	data, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatalf("missing golden (run with STREAM_UPDATE=1 to capture): %v", err)
	}
	var want map[string]streamPrint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range Names {
		if got[name] != want[name] {
			t.Errorf("%s: fingerprint %+v, want %+v", name, got[name], want[name])
		}
	}
}
