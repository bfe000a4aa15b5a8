package main

import (
	"sort"

	"repro/internal/core"
)

// stat summarizes one metric over the rounds of a run. Value is the
// reported reading: the median, or for timings the fast quartile (see
// endToEnd).
type stat struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func single(unit string, v float64) stat {
	return stat{Unit: unit, Value: v, Median: v, Q1: v, Q3: v, N: 1}
}

func summarize(unit string, vs []float64) stat {
	s := stat{Unit: unit, N: len(vs)}
	s.Q1, s.Median, s.Q3 = quartiles(vs)
	s.Value = s.Median
	return s
}

// quartiles returns the first quartile, median and third quartile of
// vs by the same rule as Python's statistics.quantiles(vs, n=4) (the
// default "exclusive" method), so spreads printed here match those
// computed from the printed values.
func quartiles(vs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// series collects one value per completed round of the given kind.
func (r *runner) series(traced bool, f func(round) float64) []float64 {
	var vs []float64
	for _, rd := range r.rounds {
		if rd.traced == traced {
			vs = append(vs, f(rd))
		}
	}
	return vs
}

// summed adds up each protocol's quartiles of a per-round quantity over
// the untraced rounds. Summing per-protocol medians, rather than taking
// the median of round totals, keeps one protocol's disturbed round from
// moving the total.
func (r *runner) summed(unit string, f func(protoSample) float64) stat {
	s := stat{Unit: unit}
	for _, p := range core.ProtocolNames {
		ps := summarize("", r.series(false, func(rd round) float64 { return f(rd.protos[p]) }))
		s.Q1 += ps.Q1
		s.Median += ps.Median
		s.Q3 += ps.Q3
		s.N = ps.N
	}
	return s
}

// rate turns summed work and summed time into a throughput, whose
// quartiles are the inverse of the time's. Its value is the fast
// quartile.
func rate(unit string, work, dur stat) stat {
	s := stat{Unit: unit, N: dur.N, Median: ratio(work.Median, dur.Median),
		Q1: ratio(work.Median, dur.Q3), Q3: ratio(work.Median, dur.Q1)}
	s.Value = s.Q3
	return s
}

// endToEnd computes the user-visible metrics from the untraced rounds.
// Throughput is measured-phase references per host second with caches
// warm; set-up is the summed core.NewSystem wall time of the four
// protocols.
//
// Timings report their fast quartile: the upper quartile of throughput
// and the lower quartile of set-up time over rounds. Contention from
// other tenants of a shared host only ever slows a round, so the faster
// rounds estimate the simulator's own speed; measured on such a host,
// this reading spread and drifted less across runs than the median.
func (r *runner) endToEnd() map[string]stat {
	m := map[string]stat{}
	m["krefs_per_s"] = rate("krefs/s",
		r.summed("", func(ps protoSample) float64 { return float64(ps.refs) / 1e3 }),
		r.summed("", func(ps protoSample) float64 { return ps.measure.Seconds() }))
	for _, p := range core.ProtocolNames {
		s := summarize("krefs/s", r.series(false, func(rd round) float64 {
			ps := rd.protos[p]
			return ratio(float64(ps.refs)/1e3, ps.measure.Seconds())
		}))
		s.Value = s.Q3
		m["krefs_per_s."+p] = s
	}
	m["warmup_krefs_per_s"] = rate("krefs/s",
		r.summed("", func(ps protoSample) float64 { return float64(ps.warmRefs) / 1e3 }),
		r.summed("", func(ps protoSample) float64 { return ps.warmup.Seconds() }))
	setup := r.summed("s", func(ps protoSample) float64 { return ps.setup.Seconds() })
	setup.Value = setup.Q1
	m["setup_s"] = setup
	m["heap_mb"] = summarize("MB", r.series(false, func(rd round) float64 {
		top := 0.0
		for _, ps := range rd.protos {
			top = max(top, float64(ps.heap)/1e6)
		}
		return top
	}))
	return m
}
