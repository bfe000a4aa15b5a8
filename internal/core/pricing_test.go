package core

import (
	"testing"

	"repro/internal/power"
	"repro/internal/proto"
	"repro/internal/storage"
)

// TestStorageAtPaperGeometry pins the geometry derived from Table III's
// tile to Table V's entry counts and tag widths, field by field.
func TestStorageAtPaperGeometry(t *testing.T) {
	got := proto.DefaultConfig().Storage(64, 4)
	want := storage.Config{
		Tiles: 64, Areas: 4,
		L1Entries: 2048, L2Entries: 16384, CCEntries: 2048, DirEntries: 2048,
		L1Ways: 4, L2Ways: 8, CCWays: 4,
		BlockBits: 512,
		L1TagBits: 25, L2TagBits: 17, DirTagBits: 17, L1CTagBits: 23, L2CTagBits: 17,
	}
	if got != want {
		t.Errorf("derived geometry\n %+v\nwant\n %+v", got, want)
	}
}

// price derives c's geometry on the paper's chip and returns
// DiCo-Providers' Table V rows by name and its event energies.
func price(c proto.Config) (map[string]storage.Structure, power.TileEnergies) {
	sc := c.Storage(64, 4)
	rows := map[string]storage.Structure{}
	for _, s := range append(storage.DataStructures(sc), storage.CoherenceStructures(storage.DiCoProviders, sc)...) {
		rows[s.Name] = s
	}
	return rows, power.Energies(storage.DiCoProviders, sc, power.DefaultEnergy())
}

// TestHalvedGeometryPricedSmaller: halving an array's sets halves its
// Table V rows' entries, shrinks the rows, and lowers its access
// energies. Each tag widens by one bit, so a row shrinks by a little
// less than half.
func TestHalvedGeometryPricedSmaller(t *testing.T) {
	base := proto.DefaultConfig()
	rows, e := price(base)
	halved := func(what string, small map[string]storage.Structure, names ...string) {
		for _, name := range names {
			b, s := rows[name], small[name]
			if b.Entries == 0 || s.Entries*2 != b.Entries {
				t.Errorf("%s/2: %s has %d entries, want half of %d", what, name, s.Entries, b.Entries)
			}
			if s.KB() >= b.KB() || s.KB() < b.KB()/2 {
				t.Errorf("%s/2: %s is %.3f KB, want in [%.3f, %.3f)", what, name, s.KB(), b.KB()/2, b.KB())
			}
		}
	}
	lower := func(what string, small, big float64) {
		if !(small < big) {
			t.Errorf("%s = %.4f pJ at half the sets, want below %.4f pJ", what, small, big)
		}
	}

	cc := base
	cc.CCSets /= 2
	ccRows, ccE := price(cc)
	halved("CCSets", ccRows, "L1C$", "L2C$")
	lower("L1CAccess", ccE.L1CAccess, e.L1CAccess)
	lower("L1CUpdate", ccE.L1CUpdate, e.L1CUpdate)
	lower("L2CAccess", ccE.L2CAccess, e.L2CAccess)

	l1 := base
	l1.L1Sets /= 2
	l1Rows, l1E := price(l1)
	halved("L1Sets", l1Rows, "L1 cache", "L1 dir. inf.")
	lower("L1TagRead", l1E.L1TagRead, e.L1TagRead)
	lower("L1DataRead", l1E.L1DataRead, e.L1DataRead)
}

// TestRunPricesSimulatedGeometry: a run is priced from the tile it
// simulates, so the same 16-tile run on halved L1s and coherence caches
// reports cheaper L1 and L1C$ accesses than on Table III's tile.
func TestRunPricesSimulatedGeometry(t *testing.T) {
	run := func(shrink func(*proto.Config)) power.TileEnergies {
		cfg := smallCfg("dico", "apache4x16p")
		cfg.Tiles = 16
		cfg.RefsPerCore = 200
		shrink(&cfg.Proto)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Energies
	}
	def := run(func(*proto.Config) {})
	half := run(func(c *proto.Config) { c.L1Sets /= 2; c.CCSets /= 2 })
	if half == def {
		t.Fatal("halved geometry priced the same as Table III's")
	}
	if !(half.L1TagRead < def.L1TagRead && half.L1CAccess < def.L1CAccess) {
		t.Errorf("halved geometry: L1TagRead %.4f, L1CAccess %.4f pJ; want below %.4f, %.4f",
			half.L1TagRead, half.L1CAccess, def.L1TagRead, def.L1CAccess)
	}
	if want := power.Energies(storage.DiCo, proto.DefaultConfig().Storage(16, 4), power.DefaultEnergy()); def != want {
		t.Errorf("default run priced %+v, want %+v", def, want)
	}
}
