package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/proto"
)

// tracedRound is a timed round under the CPU profiler. Only samples
// labelled as this workload's measured phase are folded, so set-up,
// warmup and the profiler's own goroutine do not count.
func (r *runner) tracedRound() error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start profile: %w", err)
	}
	n := len(r.rounds)
	r.timedRound(true)
	pprof.StopCPUProfile()
	if len(r.rounds) == n {
		return nil // the round failed and is already counted
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	byLayer, err := fold(p, map[string]string{"workload": r.spec.Name, "phase": "measure"})
	if err != nil {
		return err
	}
	for l, ns := range byLayer {
		r.layerNS[l] += ns
	}
	for _, ps := range r.rounds[n].protos {
		r.tracedRefs += ps.refs
		r.tracedWallNS += ps.measure.Nanoseconds()
	}
	return nil
}

// perLayer computes the per-layer metrics: self time per layer from
// the traced rounds, deterministic work counts from the reference
// results, allocations from the untraced rounds, the parallel replay's
// speedup and lane profiles, and the probes' isolated timings.
func (r *runner) perLayer(probes map[string]stat, lanes []protoSample, speedup, calibNS float64) map[string]stat {
	m := map[string]stat{}
	set := func(name, unit string, v float64) { m[name] = single(unit, v) }

	// Self time. The sampled total is the sum of the layer values, so
	// the layers add up to it exactly.
	sampled := 0.0
	for _, l := range layers {
		v := ratio(float64(r.layerNS[l]), float64(r.tracedRefs))
		sampled += v
		set(l+".self_ns_per_ref", "ns/ref", v)
	}
	set("trace.sampled_ns_per_ref", "ns/ref", sampled)
	set("trace.wall_ns_per_ref", "ns/ref", ratio(float64(r.tracedWallNS), float64(r.tracedRefs)))
	untraced := median(r.series(false, func(rd round) float64 { return rd.nsPerRef() }))
	traced := median(r.series(true, func(rd round) float64 { return rd.nsPerRef() }))
	set("trace.overhead_frac", "frac", ratio(traced, untraced)-1)

	// Deterministic counts of the reference runs, summed over protocols.
	var refs, events, cycles, msgs, flits, l2reads, dirReads, memReads uint64
	var hits, misses, links, predOK, pred uint64
	saved := 0.0
	for _, p := range core.ProtocolNames {
		res, ok := r.ref[p]
		if !ok {
			continue
		}
		refs += res.Refs
		events += res.Events
		cycles += uint64(res.Cycles)
		msgs += res.Net.Messages
		flits += res.Net.FlitLinkCrossing
		l2reads += res.Counters.Value("l2.data.read")
		dirReads += res.Counters.Value("dir.read")
		memReads += res.MemReads
		hits += res.Profile.Hits
		misses += res.Profile.TotalMisses()
		for _, c := range res.Profile.Links {
			links += c
		}
		predOK += res.Profile.Count[proto.MissPredOwner] + res.Profile.Count[proto.MissPredProvider]
		pred += res.Profile.Count[proto.MissPredOwner] + res.Profile.Count[proto.MissPredProvider] +
			res.Profile.Count[proto.MissPredFail]
		saved += res.DedupSavings / float64(len(core.ProtocolNames))
	}
	fr := float64(refs)
	set("sim.events_per_ref", "events/ref", ratio(float64(events), fr))
	set("sim.kcycles", "kcycles", float64(cycles)/1e3)
	set("mesh.msgs_per_ref", "msgs/ref", ratio(float64(msgs), fr))
	set("mesh.flit_links_per_ref", "flits/ref", ratio(float64(flits), fr))
	set("cache.l1_hit_ratio", "frac", ratio(float64(hits), float64(hits+misses)))
	set("cache.l2_data_reads_per_ref", "reads/ref", ratio(float64(l2reads), fr))
	set("cache.dir_reads_per_ref", "reads/ref", ratio(float64(dirReads), fr))
	set("memctrl.dram_reads_per_kref", "reads/kref", 1e3*ratio(float64(memReads), fr))
	set("memctrl.dedup_saved_frac", "frac", saved)
	set("proto.pred_accuracy", "frac", ratio(float64(predOK), float64(pred)))
	set("proto.links_per_miss", "links/miss", ratio(float64(links), float64(misses)))

	var allocs, urefs uint64
	for _, rd := range r.rounds {
		if !rd.traced {
			for _, ps := range rd.protos {
				allocs += ps.allocs
				urefs += ps.refs
			}
		}
	}
	set("core.allocs_per_kref", "allocs/kref", 1e3*ratio(float64(allocs), float64(urefs)))

	// Lane profiles retain the first sim.DefaultLaneWindowCap windows;
	// stalls, imbalance and waits are over those.
	var lrefs, windows, rows, stalls uint64
	var waitNS int64
	imbalance := 0.0
	for _, ps := range lanes {
		lp := ps.lanes
		lrefs += ps.refs
		windows += uint64(lp.TotalWindows)
		perLane := make([]uint64, lp.Lanes)
		for _, w := range lp.Windows {
			rows++
			if w.Events == 0 {
				stalls++
			}
			waitNS += w.WaitNS
			perLane[w.Lane] += w.Events
		}
		var sum, top uint64
		for _, e := range perLane {
			sum += e
			top = max(top, e)
		}
		imbalance += ratio(float64(top)*float64(lp.Lanes), float64(sum)) / float64(len(lanes))
	}
	set("sim.lane_windows_per_kref", "windows/kref", 1e3*ratio(float64(windows), float64(lrefs)))
	set("sim.lane_stall_frac", "frac", ratio(float64(stalls), float64(rows)))
	set("sim.lane_imbalance", "max/mean", imbalance)
	set("sim.barrier_wait_ns_per_window", "ns/window", ratio(float64(waitNS), float64(rows)))
	set("sim.parallel_speedup", "x", speedup)

	for name, s := range probes {
		m[name] = s
	}
	set("host.calib_ns", "ns", calibNS)
	return m
}

// nsPerRef is the round's measured-phase host time per reference.
func (rd round) nsPerRef() float64 {
	var ns, refs float64
	for _, ps := range rd.protos {
		ns += float64(ps.measure.Nanoseconds())
		refs += float64(ps.refs)
	}
	return ratio(ns, refs)
}

// ratio is a/b, or 0 when b is 0 (a count the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
