package power_test

import (
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/storage"
)

// cfg is Table III's tile on the paper's evaluated chip.
func cfg() storage.Config { return proto.DefaultConfig().Storage(64, 4) }

// TestTableVILeakage checks the fitted leakage model against every row
// of Table VI. The paper's CACTI numbers are mildly sub-linear for the
// smallest arrays, so DiCo-Arin is allowed ~1.5 mW of slack.
func TestTableVILeakage(t *testing.T) {
	m := power.DefaultLeakage(cfg())
	cases := []struct {
		p          storage.Protocol
		total, tag float64
		tolT, tolG float64
	}{
		{storage.Directory, 239, 37, 0.5, 0.1},
		{storage.DiCo, 241, 39, 1.0, 0.6},
		{storage.DiCoProviders, 222, 20, 1.0, 0.5},
		{storage.DiCoArin, 219, 17, 2.0, 1.5},
	}
	for _, c := range cases {
		total, tag := m.TileLeakage(c.p, cfg())
		if math.Abs(total-c.total) > c.tolT {
			t.Errorf("%v total leakage = %.1f mW, paper %v", c.p, total, c.total)
		}
		if math.Abs(tag-c.tag) > c.tolG {
			t.Errorf("%v tag leakage = %.1f mW, paper %v", c.p, tag, c.tag)
		}
	}
}

// TestTableVIDeltas checks the percentage columns: DiCo +1%/+5%,
// Providers -7%/-45%, Arin -8%/-54% versus the directory.
func TestTableVIDeltas(t *testing.T) {
	m := power.DefaultLeakage(cfg())
	dTotal, dTag := m.TileLeakage(storage.Directory, cfg())
	check := func(p storage.Protocol, wantTotal, wantTag, tol float64) {
		total, tag := m.TileLeakage(p, cfg())
		gotTotal := (total - dTotal) / dTotal * 100
		gotTag := (tag - dTag) / dTag * 100
		if math.Abs(gotTotal-wantTotal) > tol {
			t.Errorf("%v total delta = %.1f%%, paper %v%%", p, gotTotal, wantTotal)
		}
		if math.Abs(gotTag-wantTag) > 5 {
			t.Errorf("%v tag delta = %.1f%%, paper %v%%", p, gotTag, wantTag)
		}
	}
	check(storage.DiCo, 1, 5, 1)
	check(storage.DiCoProviders, -7, -45, 1.5)
	check(storage.DiCoArin, -8, -54, 1.5)
}

func TestAccessEnergyMonotonic(t *testing.T) {
	m := power.DefaultEnergy()
	if m.AccessEnergy(128, 512) <= m.AccessEnergy(16, 512) {
		t.Error("bigger array not more expensive")
	}
	if m.AccessEnergy(64, 1024) <= m.AccessEnergy(64, 512) {
		t.Error("more bits not more expensive")
	}
	if m.AccessEnergy(0.1, 8) <= 0 {
		t.Error("tiny array energy not positive")
	}
}

// TestEnergiesProtocolOrdering verifies the qualitative energy
// relations the paper relies on.
func TestEnergiesProtocolOrdering(t *testing.T) {
	m := power.DefaultEnergy()
	dir := power.Energies(storage.Directory, cfg(), m)
	dico := power.Energies(storage.DiCo, cfg(), m)
	prov := power.Energies(storage.DiCoProviders, cfg(), m)
	arin := power.Energies(storage.DiCoArin, cfg(), m)

	// "tag accesses are more power consuming in DiCo-based protocols
	// than in the flat directory" (L1 tags carry the sharing vector).
	if dico.L1TagRead <= dir.L1TagRead {
		t.Error("DiCo L1 tag access should cost more than directory's")
	}
	if prov.L1TagRead <= dir.L1TagRead || arin.L1TagRead <= dir.L1TagRead {
		t.Error("provider protocols' L1 tag access should cost more than directory's")
	}
	// But less than original DiCo (narrower vectors).
	if prov.L1TagRead >= dico.L1TagRead || arin.L1TagRead >= dico.L1TagRead {
		t.Error("provider protocols' L1 tag should cost less than DiCo's")
	}
	// "L2 tags are smaller in DiCo-Providers and even smaller in
	// DiCo-Arin."
	if !(arin.L2TagRead < prov.L2TagRead && prov.L2TagRead < dir.L2TagRead) {
		t.Errorf("L2 tag energy ordering broken: arin=%v prov=%v dir=%v",
			arin.L2TagRead, prov.L2TagRead, dir.L2TagRead)
	}
	// "L2 block reads are more power consuming than L1 block reads."
	if dir.L2DataRead <= dir.L1DataRead {
		t.Error("L2 data read should cost more than L1 data read")
	}
	// Barrow-Williams: router == L1 read, flit == router/4.
	if dir.Router != dir.L1DataRead {
		t.Error("router energy != L1 block read energy")
	}
	if math.Abs(dir.Flit-dir.Router/4) > 1e-12 {
		t.Error("flit energy != router/4")
	}
	// Directory has no coherence caches; DiCo protocols no dir cache.
	if dir.L1CAccess != 0 || dico.DirRead != 0 {
		t.Error("structure energies leaked across protocols")
	}
}

func TestDynamicBreakdown(t *testing.T) {
	m := power.DefaultEnergy()
	e := power.Energies(storage.DiCo, cfg(), m)
	var s stats.Set
	s.Add(power.EvL1TagRead, 100)
	s.Add(power.EvL1DataRead, 50)
	s.Add(power.EvL2DataRead, 10)
	s.Add(power.EvL1CAccess, 5)
	net := mesh.Stats{FlitLinkCrossing: 1000, RouterTraversals: 200}
	d := power.Dynamic(&s, net, e)

	wantL1Tag := 100 * e.L1TagRead
	if math.Abs(d.Cache[power.ClassL1Tag]-wantL1Tag) > 1e-9 {
		t.Errorf("L1 tag energy = %v, want %v", d.Cache[power.ClassL1Tag], wantL1Tag)
	}
	if d.Cache[power.ClassDir] != 0 {
		t.Error("DiCo charged directory-cache energy")
	}
	if d.Link != 1000*e.Flit || d.Routing != 200*e.Router {
		t.Error("network energy wrong")
	}
	total := d.Total()
	want := wantL1Tag + 50*e.L1DataRead + 10*e.L2DataRead + 5*e.L1CAccess +
		1000*e.Flit + 200*e.Router
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("Total = %v, want %v", total, want)
	}
	if math.Abs(d.CacheTotal()+d.NetworkTotal()-total) > 1e-9 {
		t.Error("subtotals do not add up")
	}
}

func TestDynamicEmpty(t *testing.T) {
	var s stats.Set
	d := power.Dynamic(&s, mesh.Stats{}, power.Energies(storage.Directory, cfg(), power.DefaultEnergy()))
	if d.Total() != 0 {
		t.Error("empty counts produced energy")
	}
}

func BenchmarkTable6Leakage(b *testing.B) {
	m := power.DefaultLeakage(cfg())
	c := cfg()
	for i := 0; i < b.N; i++ {
		for _, p := range storage.All {
			m.TileLeakage(p, c)
		}
	}
}
