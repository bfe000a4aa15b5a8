package exp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

// smallMatrix runs a reduced two-workload matrix shared by the tests.
func smallMatrix(t *testing.T) *Matrix {
	t.Helper()
	opt := DefaultOptions()
	opt.Workloads = []string{"apache4x16p", "tomcatv4x16p"}
	opt.Base.RefsPerCore = 5000
	opt.Base.WarmupRefs = 15000
	m, err := Run(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var cached *Matrix

func matrix(t *testing.T) *Matrix {
	if cached == nil {
		cached = smallMatrix(t)
	}
	return cached
}

func TestTablesRender(t *testing.T) {
	if s := Table5().String(); !strings.Contains(s, "DiCo-Arin") || !strings.Contains(s, "L2C$") {
		t.Errorf("Table V incomplete:\n%s", s)
	}
	if s := Table6().String(); !strings.Contains(s, "-5") { // -54%-ish tag column
		t.Errorf("Table VI missing reductions:\n%s", s)
	}
	tabs := Table7()
	if len(tabs) != 5 {
		t.Fatalf("Table VII has %d core counts, want 5", len(tabs))
	}
	if !strings.Contains(tabs[0].String(), "64 cores") {
		t.Error("Table VII missing 64-core block")
	}
}

func TestFiguresRender(t *testing.T) {
	m := matrix(t)
	for name, s := range map[string]string{
		"fig7":  m.Figure7().String(),
		"fig8a": m.Figure8a().String(),
		"fig8b": m.Figure8b().String(),
		"fig9a": m.Figure9a().String(),
		"fig9b": m.Figure9b().String(),
		"hops":  m.LinkAnalysis().String(),
	} {
		if !strings.Contains(s, "apache4x16p") || !strings.Contains(s, "arin") {
			t.Errorf("%s incomplete:\n%s", name, s)
		}
	}
}

// TestClaimNoPerformanceDegradation checks the paper's headline
// performance claim: the proposed protocols show no significant
// degradation versus the directory (Figure 9a).
func TestClaimNoPerformanceDegradation(t *testing.T) {
	m := matrix(t)
	for _, wl := range m.Workloads {
		base := m.Results[wl]["directory"].Performance()
		for _, p := range []string{"providers", "arin"} {
			rel := m.Results[wl][p].Performance() / base
			if rel < 0.90 {
				t.Errorf("%s/%s performance %.3f of directory; paper promises no significant degradation", wl, p, rel)
			}
		}
	}
}

// TestClaimProvidersShortenMisses checks Section V-D: provider-served
// misses stay inside the area — far fewer links than the chip-wide
// average two-hop miss.
func TestClaimProvidersShortenMisses(t *testing.T) {
	m := matrix(t)
	r := m.Results["apache4x16p"]["providers"]
	short := r.Profile.MeanLinks(proto.MissPredProvider)
	if r.Profile.Count[proto.MissPredProvider] == 0 {
		t.Skip("no predicted provider hits in this reduced run")
	}
	if short > 7 {
		t.Errorf("predicted provider misses average %.1f links; in-area misses should stay under ~6 (paper: 5.4)", short)
	}
}

// TestClaimProvidersServeDedup: DiCo-Providers resolves a noticeable
// share of apache's misses via providers (paper: 21% predicted +
// provider-resolved for apache).
func TestClaimProvidersServeDedup(t *testing.T) {
	m := matrix(t)
	r := m.Results["apache4x16p"]["providers"]
	served := r.Profile.Count[proto.MissPredProvider] + r.Profile.Count[proto.MissUnpredProvider]
	frac := float64(served) / float64(r.Profile.TotalMisses())
	if frac < 0.03 {
		t.Errorf("providers served only %.1f%% of apache misses; expected a noticeable share", frac*100)
	}
}

// TestClaimProvidersImproveDiCoPower: in L1-power-dominated workloads,
// both proposals beat the original DiCo's total dynamic power
// (Section V-C: "by at least 10% in every L1-power-dominated
// workload"; we require an improvement, allowing slack at this run
// scale).
func TestClaimProvidersImproveDiCoPower(t *testing.T) {
	m := matrix(t)
	dico := m.Results["tomcatv4x16p"]["dico"].PowerPerCycle()
	for _, p := range []string{"providers", "arin"} {
		got := m.Results["tomcatv4x16p"][p].PowerPerCycle()
		if got > dico*1.02 {
			t.Errorf("%s tomcatv dynamic power %.3g vs dico %.3g; paper says the proposals improve on DiCo", p, got, dico)
		}
	}
}

// TestTheoreticalDistances checks the Section V-D projections: on 64
// tiles / 4 areas a direct miss averages ~10.6 links and a shortened
// miss ~5.4; on 256 tiles / 64 areas: ~21.3 and ~2.6.
func TestTheoreticalDistances(t *testing.T) {
	ind, dir, short := TheoreticalDistances(64, 4)
	if dir < 10 || dir > 11.2 {
		t.Errorf("64-tile direct = %.1f links, paper ~10.6", dir)
	}
	if short < 4.8 || short > 6 {
		t.Errorf("64-tile shortened = %.1f links, paper ~5.4", short)
	}
	if ind < 15 || ind > 17 {
		t.Errorf("64-tile indirect = %.1f links, paper ~16", ind)
	}
	_, dir256, short256 := TheoreticalDistances(256, 64)
	if dir256 < 20 || dir256 > 22.5 {
		t.Errorf("256-tile direct = %.1f links, paper ~21.3", dir256)
	}
	if short256 < 2.2 || short256 > 3 {
		t.Errorf("256-tile shortened = %.1f links, paper ~2.6", short256)
	}
}

// TestDedupSavingsSurfaceInResults: the realized memory savings land
// near Table IV's column for apache.
func TestDedupSavingsSurfaceInResults(t *testing.T) {
	m := matrix(t)
	got := m.Results["apache4x16p"]["directory"].DedupSavings
	if got < 0.10 || got > 0.32 {
		t.Errorf("apache dedup savings %.3f, Table IV says 0.217", got)
	}
}

// TestOptionsBaseDerivation checks the Base contract of
// Options.config: cells derive from Base verbatim (only workload and
// protocol are overwritten), and a zero Base falls back to
// core.DefaultConfig.
func TestOptionsBaseDerivation(t *testing.T) {
	// Base alone drives the cell.
	opt := DefaultOptions()
	opt.Base.RefsPerCore = 1111
	opt.Base.WarmupRefs = 2222
	opt.Base.Seed = 9
	opt.Base.Dedup = false
	opt.Base.AltPlacement = true
	opt.Base.Areas = 16
	opt.Base.Shards, opt.Base.Parallel = 2, true
	cfg := opt.config("jbb4x16p", "arin")
	if cfg.Workload != "jbb4x16p" || cfg.Protocol != "arin" {
		t.Errorf("cell identity wrong: %s/%s", cfg.Workload, cfg.Protocol)
	}
	if cfg.RefsPerCore != 1111 || cfg.WarmupRefs != 2222 || cfg.Seed != 9 ||
		cfg.Dedup || !cfg.AltPlacement || cfg.Areas != 16 || cfg.Shards != 2 || !cfg.Parallel {
		t.Errorf("Base not honored: %+v", cfg)
	}

	// Zero-value Options still produce a runnable default config.
	cfg = Options{}.config("apache4x16p", "directory")
	def := core.DefaultConfig()
	if cfg.Tiles != def.Tiles || cfg.RefsPerCore != def.RefsPerCore || !cfg.Dedup {
		t.Errorf("zero Base did not fall back to defaults: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero-Base cell invalid: %v", err)
	}
}
