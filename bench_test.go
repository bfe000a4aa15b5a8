// Package repro's root benchmarks regenerate every table and figure of
// the paper (see DESIGN.md's experiment index). The analytic tables
// run at full fidelity; the simulation figures run a reduced reference
// budget per core so the whole suite stays laptop-scale — use
// cmd/experiments for full-budget runs.
package repro

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/power"
	"repro/internal/proto"
	"repro/internal/storage"
)

// paperChip is Table III's tile on the paper's 64-tile, 4-area chip.
func paperChip() storage.Config { return proto.DefaultConfig().Storage(64, 4) }

// BenchmarkTable5StorageOverhead regenerates Table V.
func BenchmarkTable5StorageOverhead(b *testing.B) {
	cfg := paperChip()
	for i := 0; i < b.N; i++ {
		for _, p := range storage.All {
			_ = storage.Overhead(p, cfg)
		}
	}
	for _, p := range storage.All {
		b.ReportMetric(storage.Overhead(p, cfg)*100, p.String()+"_overhead_%")
	}
}

// BenchmarkTable6Leakage regenerates Table VI.
func BenchmarkTable6Leakage(b *testing.B) {
	cfg := paperChip()
	m := power.DefaultLeakage(cfg)
	for i := 0; i < b.N; i++ {
		for _, p := range storage.All {
			m.TileLeakage(p, cfg)
		}
	}
	for _, p := range storage.All {
		total, _ := m.TileLeakage(p, cfg)
		b.ReportMetric(total, p.String()+"_mW")
	}
}

// BenchmarkTable7Sweep regenerates Table VII across all core counts.
func BenchmarkTable7Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cores := range []int{64, 128, 256, 512, 1024} {
			storage.OverheadSweep(paperChip(), cores)
		}
	}
}

// benchMatrix runs the reduced simulation matrix once and caches it
// for the figure benchmarks.
var (
	benchOnce   sync.Once
	benchResult *exp.Matrix
	benchErr    error
)

func matrix(b *testing.B) *exp.Matrix {
	b.Helper()
	benchOnce.Do(func() {
		opt := exp.DefaultOptions()
		opt.Workloads = []string{"apache4x16p", "tomcatv4x16p"}
		opt.Base.RefsPerCore = 4000
		opt.Base.WarmupRefs = 12000
		opt.Workers = 0 // fan the 2x4 matrix out across all CPUs
		benchResult, benchErr = exp.Run(opt, nil)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchResult
}

// BenchmarkFigure7DynamicPower regenerates Figure 7 (total dynamic
// power by protocol, normalized to the directory's cache power).
func BenchmarkFigure7DynamicPower(b *testing.B) {
	m := matrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Figure7()
	}
	den := m.Results["apache4x16p"]["directory"].CachePowerPerCycle()
	for _, p := range core.ProtocolNames {
		r := m.Results["apache4x16p"][p]
		b.ReportMetric(r.PowerPerCycle()/den, "apache_"+p+"_power")
	}
}

// BenchmarkFigure8aCacheBreakdown regenerates Figure 8a.
func BenchmarkFigure8aCacheBreakdown(b *testing.B) {
	m := matrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Figure8a()
	}
}

// BenchmarkFigure8bNetworkBreakdown regenerates Figure 8b.
func BenchmarkFigure8bNetworkBreakdown(b *testing.B) {
	m := matrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Figure8b()
	}
	den := m.Results["apache4x16p"]["directory"].NetworkPowerPerCycle()
	for _, p := range core.ProtocolNames {
		r := m.Results["apache4x16p"][p]
		b.ReportMetric(r.NetworkPowerPerCycle()/den, "apache_"+p+"_net")
	}
}

// BenchmarkFigure9aPerformance regenerates Figure 9a.
func BenchmarkFigure9aPerformance(b *testing.B) {
	m := matrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Figure9a()
	}
	base := m.Results["apache4x16p"]["directory"].Performance()
	for _, p := range core.ProtocolNames {
		b.ReportMetric(m.Results["apache4x16p"][p].Performance()/base, "apache_"+p+"_perf")
	}
}

// BenchmarkFigure9bPrediction regenerates Figure 9b.
func BenchmarkFigure9bPrediction(b *testing.B) {
	m := matrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Figure9b()
	}
	r := m.Results["apache4x16p"]["providers"]
	total := float64(r.Profile.TotalMisses())
	prov := float64(r.Profile.Count[proto.MissPredProvider] + r.Profile.Count[proto.MissUnpredProvider])
	b.ReportMetric(prov/total*100, "apache_providers_served_%")
}

// BenchmarkShortenedMissLinks regenerates the Section V-D link
// analysis: mean links per miss class plus the theoretical values.
func BenchmarkShortenedMissLinks(b *testing.B) {
	m := matrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LinkAnalysis()
	}
	r := m.Results["apache4x16p"]["providers"]
	b.ReportMetric(r.Profile.MeanLinks(proto.MissPredProvider), "pred_provider_links")
	_, direct, shortened := exp.TheoreticalDistances(64, 4)
	b.ReportMetric(direct, "theory_direct_links")
	b.ReportMetric(shortened, "theory_shortened_links")
}

// runOne is a helper for the ablation benchmarks.
func runOne(b *testing.B, mutate func(*core.Config)) *core.Result {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Workload = "apache4x16p"
	cfg.RefsPerCore = 3000
	cfg.WarmupRefs = 8000
	mutate(&cfg)
	res, err := core.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationBroadcastTree compares DiCo-Arin with hardware
// (tree) broadcast against 63 unicasts. Both run Figure 6's alternative
// placement: each VM spans areas, so the data its threads share and
// write is inter-area, and those writes broadcast their invalidations.
// The matched placement broadcasts nothing at this budget (dedup's
// copy-on-write keeps cross-VM blocks read-only), which would compare
// two identical runs.
func BenchmarkAblationBroadcastTree(b *testing.B) {
	var tree, uni *core.Result
	for i := 0; i < b.N; i++ {
		tree = runOne(b, func(c *core.Config) {
			c.Protocol = "arin"
			c.AltPlacement = true
		})
		uni = runOne(b, func(c *core.Config) {
			c.Protocol = "arin"
			c.AltPlacement = true
			c.Proto.BroadcastUnicast = true
		})
	}
	if tree.Net.Broadcasts == 0 {
		b.Fatal("the tree run broadcast nothing: the ablation compares identical runs")
	}
	b.ReportMetric(float64(tree.Net.Broadcasts), "tree_broadcasts")
	b.ReportMetric(float64(uni.Net.FlitLinkCrossing)/float64(tree.Net.FlitLinkCrossing), "unicast_vs_tree_links")
}

// BenchmarkAblationDedup compares DiCo-Providers with deduplication on
// and off (the paper cites [6]: dedup improves performance by reducing
// cache pressure).
func BenchmarkAblationDedup(b *testing.B) {
	var on, off *core.Result
	for i := 0; i < b.N; i++ {
		on = runOne(b, func(c *core.Config) { c.Protocol = "providers" })
		off = runOne(b, func(c *core.Config) {
			c.Protocol = "providers"
			c.Dedup = false
		})
	}
	b.ReportMetric(on.Performance()/off.Performance(), "dedup_speedup")
}

// BenchmarkAblationContention compares runs with and without the
// link-contention model.
func BenchmarkAblationContention(b *testing.B) {
	var with, without *core.Result
	for i := 0; i < b.N; i++ {
		with = runOne(b, func(c *core.Config) { c.Protocol = "directory" })
		without = runOne(b, func(c *core.Config) {
			c.Protocol = "directory"
			c.Net.Contention = false
		})
	}
	b.ReportMetric(float64(with.Cycles)/float64(without.Cycles), "contention_slowdown")
}

// BenchmarkAblationAreaCount sweeps the static area count for
// DiCo-Providers (Section V-B's closing trade-off).
func BenchmarkAblationAreaCount(b *testing.B) {
	for _, areas := range []int{2, 4, 8} {
		areas := areas
		var res *core.Result
		for i := 0; i < b.N; i++ {
			res = runOne(b, func(c *core.Config) {
				c.Protocol = "providers"
				c.Areas = areas
			})
		}
		prov := res.Profile.Count[proto.MissPredProvider] + res.Profile.Count[proto.MissUnpredProvider]
		b.ReportMetric(float64(prov)/float64(res.Profile.TotalMisses())*100,
			"areas"+string(rune('0'+areas))+"_provider_served_%")
	}
}

// BenchmarkAltPlacement compares the matched and Figure 6 alternative
// placements for DiCo-Providers (Section V-C/V-D's "-alt" runs).
func BenchmarkAltPlacement(b *testing.B) {
	var matched, alt *core.Result
	for i := 0; i < b.N; i++ {
		matched = runOne(b, func(c *core.Config) { c.Protocol = "providers" })
		alt = runOne(b, func(c *core.Config) {
			c.Protocol = "providers"
			c.AltPlacement = true
		})
	}
	b.ReportMetric(alt.Performance()/matched.Performance(), "alt_vs_matched_perf")
}

// BenchmarkAblationNoPrediction disables the L1C$ supplier prediction
// in DiCo (the mechanism Direct Coherence hinges on) and reports the
// network cost of losing it, with the share of the predicting run's
// misses whose supplier the L1C$ named: the most prediction can save.
func BenchmarkAblationNoPrediction(b *testing.B) {
	var pred, nopred *core.Result
	for i := 0; i < b.N; i++ {
		pred = runOne(b, func(c *core.Config) { c.Protocol = "dico" })
		nopred = runOne(b, func(c *core.Config) {
			c.Protocol = "dico"
			c.Proto.NoPrediction = true
		})
	}
	b.ReportMetric(float64(nopred.Net.FlitLinkCrossing)/float64(pred.Net.FlitLinkCrossing), "nopred_vs_pred_links")
	b.ReportMetric(pred.Performance()/nopred.Performance(), "pred_speedup")
	b.ReportMetric(predictedPct(pred.Profile), "predicted_%")
}

// predictedPct is the percentage of misses whose owner or provider the
// L1C$ predicted.
func predictedPct(p proto.MissProfile) float64 {
	pred := p.Count[proto.MissPredOwner] + p.Count[proto.MissPredProvider]
	return float64(pred) / float64(p.TotalMisses()) * 100
}

// BenchmarkAblationCoherenceCacheSize sweeps the L1C$/L2C$ sets for
// DiCo-Providers on apache. Each run is priced from the geometry it
// simulates, so a larger L1C$ costs more per access. It reports total
// dynamic power against the directory at Table III's geometry, and the
// share of misses whose owner or provider the L1C$ predicted.
func BenchmarkAblationCoherenceCacheSize(b *testing.B) {
	dir := runOne(b, func(c *core.Config) { c.Protocol = "directory" })
	for _, sets := range []int{256, 512, 1024} {
		var res *core.Result
		for i := 0; i < b.N; i++ {
			res = runOne(b, func(c *core.Config) {
				c.Protocol = "providers"
				c.Proto.CCSets = sets
			})
		}
		name := "cc" + strconv.Itoa(sets)
		b.ReportMetric(res.PowerPerCycle()/dir.PowerPerCycle(), name+"_power_vs_dir")
		b.ReportMetric(predictedPct(res.Profile), name+"_predicted_%")
	}
}
