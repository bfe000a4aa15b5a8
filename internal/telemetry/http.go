package telemetry

import (
	"expvar"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"

	"repro/internal/mesh"
	"repro/internal/topo"
)

// runView is the latest epoch snapshot of one live run, deep-copied
// out of the simulation goroutine.
type runView struct {
	Workload string
	Grid     topo.Grid
	Names    []string
	Sample   Sample
	// PrevLinkFlits is the previous epoch's cumulative link counters,
	// kept so the heatmap can show per-epoch occupancy deltas.
	PrevLinkFlits []uint64
}

// Live is the thread-safe bridge between running simulations and the
// HTTP endpoint: each sampler pushes its epoch snapshots in (from the
// simulation goroutines), HTTP handlers read the latest one out. It
// supports several concurrent runs (cmpsim -protocols) keyed by
// protocol name.
type Live struct {
	mu   sync.Mutex
	runs map[string]*runView
}

// NewLive returns an empty live-state registry.
func NewLive() *Live {
	return &Live{runs: map[string]*runView{}}
}

// Update publishes one run's newest sample. It deep-copies everything
// it keeps, so the caller's buffers stay private to the simulation.
func (l *Live) Update(protocol, workload string, grid topo.Grid, names []string, s *Sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.runs[protocol]
	if v == nil {
		v = &runView{}
		l.runs[protocol] = v
	} else {
		v.PrevLinkFlits = v.Sample.LinkFlits
	}
	v.Workload = workload
	v.Grid = grid
	v.Names = append([]string(nil), names...)
	v.Sample = *s
	v.Sample.Counters = append([]uint64(nil), s.Counters...)
	v.Sample.LinkFlits = append([]uint64(nil), s.LinkFlits...)
	v.Sample.PerVMCachePJ = append([]float64(nil), s.PerVMCachePJ...)
	v.Sample.PerVMNetPJ = append([]float64(nil), s.PerVMNetPJ...)
}

// Attach wires a sampler's epoch hook to this registry.
func (l *Live) Attach(s *Sampler, protocol, workload string, grid topo.Grid) {
	s.OnSample = func(smp *Sample) {
		l.Update(protocol, workload, grid, s.counters.Names(), smp)
	}
}

// protocols returns the live run names, sorted for stable output.
func (l *Live) protocols() []string {
	names := make([]string, 0, len(l.runs))
	for p := range l.runs {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}

// metrics serves the Prometheus text exposition of every live run.
func (l *Live) metrics(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	b.WriteString("# HELP cmpsim_cycle Current simulation cycle of the newest epoch sample.\n# TYPE cmpsim_cycle gauge\n")
	for _, p := range l.protocols() {
		fmt.Fprintf(&b, "cmpsim_cycle{protocol=%q} %d\n", p, l.runs[p].Sample.Cycle)
	}
	b.WriteString("# HELP cmpsim_refs_total References retired.\n# TYPE cmpsim_refs_total counter\n")
	for _, p := range l.protocols() {
		fmt.Fprintf(&b, "cmpsim_refs_total{protocol=%q} %d\n", p, l.runs[p].Sample.Refs)
	}
	b.WriteString("# HELP cmpsim_kernel_events_total Kernel events dispatched.\n# TYPE cmpsim_kernel_events_total counter\n")
	for _, p := range l.protocols() {
		fmt.Fprintf(&b, "cmpsim_kernel_events_total{protocol=%q} %d\n", p, l.runs[p].Sample.Events)
	}
	b.WriteString("# HELP cmpsim_queue_depth Kernel pending-event count.\n# TYPE cmpsim_queue_depth gauge\n")
	for _, p := range l.protocols() {
		fmt.Fprintf(&b, "cmpsim_queue_depth{protocol=%q} %d\n", p, l.runs[p].Sample.QueueDepth)
	}
	b.WriteString("# HELP cmpsim_mshr_pending Outstanding L1 misses chip-wide.\n# TYPE cmpsim_mshr_pending gauge\n")
	for _, p := range l.protocols() {
		fmt.Fprintf(&b, "cmpsim_mshr_pending{protocol=%q} %d\n", p, l.runs[p].Sample.MSHRPending)
	}
	b.WriteString("# HELP cmpsim_energy_pj Dynamic energy split since phase start.\n# TYPE cmpsim_energy_pj gauge\n")
	for _, p := range l.protocols() {
		s := &l.runs[p].Sample
		fmt.Fprintf(&b, "cmpsim_energy_pj{protocol=%q,component=\"cache\"} %g\n", p, s.EnergyCachePJ)
		fmt.Fprintf(&b, "cmpsim_energy_pj{protocol=%q,component=\"link\"} %g\n", p, s.EnergyLinkPJ)
		fmt.Fprintf(&b, "cmpsim_energy_pj{protocol=%q,component=\"routing\"} %g\n", p, s.EnergyRoutingPJ)
	}
	perVM := false
	for _, p := range l.protocols() {
		if len(l.runs[p].Sample.PerVMCachePJ) > 0 {
			perVM = true
		}
	}
	if perVM {
		b.WriteString("# HELP cmpsim_vm_energy_pj Dynamic energy attributed to each consolidated VM since phase start.\n# TYPE cmpsim_vm_energy_pj gauge\n")
		for _, p := range l.protocols() {
			s := &l.runs[p].Sample
			for vm := range s.PerVMCachePJ {
				fmt.Fprintf(&b, "cmpsim_vm_energy_pj{protocol=%q,vm=\"%d\",component=\"cache\"} %g\n", p, vm, s.PerVMCachePJ[vm])
				fmt.Fprintf(&b, "cmpsim_vm_energy_pj{protocol=%q,vm=\"%d\",component=\"network\"} %g\n", p, vm, s.PerVMNetPJ[vm])
			}
		}
	}
	b.WriteString("# HELP cmpsim_counter_total Simulation event counters (power + protocol events).\n# TYPE cmpsim_counter_total counter\n")
	for _, p := range l.protocols() {
		v := l.runs[p]
		for i, name := range v.Names {
			if i >= len(v.Sample.Counters) {
				break
			}
			fmt.Fprintf(&b, "cmpsim_counter_total{protocol=%q,counter=%q} %d\n", p, name, v.Sample.Counters[i])
		}
	}
	b.WriteString("# HELP cmpsim_link_flits_total Flits carried per directed mesh link.\n# TYPE cmpsim_link_flits_total counter\n")
	for _, p := range l.protocols() {
		v := l.runs[p]
		for idx, n := range v.Sample.LinkFlits {
			if n == 0 {
				continue
			}
			tile, dir := idx/4, mesh.Direction(idx%4)
			fmt.Fprintf(&b, "cmpsim_link_flits_total{protocol=%q,tile=\"%d\",dir=%q} %d\n",
				p, tile, mesh.DirectionName(dir), n)
		}
	}
	w.Write([]byte(b.String()))
}

// heatmap serves the HTML mesh-occupancy view, refreshed per epoch.
func (l *Live) heatmap(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString(`<!doctype html><html><head><meta http-equiv="refresh" content="2"><title>cmpsim telemetry</title>
<style>body{font-family:monospace;background:#111;color:#ddd;margin:20px}
table{border-collapse:collapse;margin:8px 0 24px}td{width:42px;height:42px;text-align:center;border:1px solid #333;font-size:11px}
h2{margin-bottom:2px}.meta{color:#8a8;font-size:13px}a{color:#9cf}</style></head><body>
<h1>cmpsim live telemetry</h1>
<p class="meta"><a href="/metrics">/metrics</a> · <a href="/debug/vars">/debug/vars</a> · <a href="/debug/pprof/">/debug/pprof</a> · mesh cells show flits crossing each tile's outgoing links in the last epoch</p>`)
	if len(l.runs) == 0 {
		b.WriteString("<p>no samples yet — the first epoch has not completed.</p>")
	}
	for _, p := range l.protocols() {
		v := l.runs[p]
		s := &v.Sample
		fmt.Fprintf(&b, "<h2>%s / %s</h2><p class=\"meta\">cycle %d · phase %s · %d refs · queue %d · mshr %d · energy cache %.3g pJ, net %.3g pJ</p>",
			html.EscapeString(p), html.EscapeString(v.Workload), s.Cycle, html.EscapeString(s.Phase),
			s.Refs, s.QueueDepth, s.MSHRPending, s.EnergyCachePJ, s.EnergyLinkPJ+s.EnergyRoutingPJ)
		// Per-tile epoch occupancy: sum the tile's four outgoing links,
		// minus the previous epoch's cumulative totals.
		tiles := v.Grid.Tiles()
		occ := make([]uint64, tiles)
		var maxOcc uint64 = 1
		for idx, n := range s.LinkFlits {
			if idx < len(v.PrevLinkFlits) {
				n -= v.PrevLinkFlits[idx]
			}
			if t := idx / 4; t < tiles {
				occ[t] += n
			}
		}
		for _, n := range occ {
			if n > maxOcc {
				maxOcc = n
			}
		}
		b.WriteString("<table>")
		for y := 0; y < v.Grid.Rows; y++ {
			b.WriteString("<tr>")
			for x := 0; x < v.Grid.Cols; x++ {
				t := v.Grid.At(x, y)
				heat := float64(occ[t]) / float64(maxOcc)
				fmt.Fprintf(&b, `<td style="background:rgba(220,80,40,%.2f)" title="tile %d: %d flits/epoch">%d</td>`,
					heat, int(t), occ[t], occ[t])
			}
			b.WriteString("</tr>")
		}
		b.WriteString("</table>")
		if len(s.PerVMCachePJ) > 0 {
			b.WriteString(`<table style="margin-top:-16px"><tr><td style="width:auto;padding:0 8px">VM</td>`)
			for vm := range s.PerVMCachePJ {
				fmt.Fprintf(&b, `<td style="width:auto;padding:0 8px">%d</td>`, vm)
			}
			b.WriteString(`</tr><tr><td style="width:auto;padding:0 8px">cache pJ</td>`)
			for _, pj := range s.PerVMCachePJ {
				fmt.Fprintf(&b, `<td style="width:auto;padding:0 8px">%.3g</td>`, pj)
			}
			b.WriteString(`</tr><tr><td style="width:auto;padding:0 8px">net pJ</td>`)
			for _, pj := range s.PerVMNetPJ {
				fmt.Fprintf(&b, `<td style="width:auto;padding:0 8px">%.3g</td>`, pj)
			}
			b.WriteString("</tr></table>")
		}
	}
	b.WriteString("</body></html>")
	w.Write([]byte(b.String()))
}

// expvarOnce guards the process-global expvar publication (tests may
// start several servers).
var expvarOnce sync.Once

// Serve starts the telemetry endpoint on addr and returns the
// listener's actual address (useful with ":0"). A bare ":port" addr
// binds localhost only — the endpoint exposes pprof, so exposing it
// beyond the local machine must be an explicit "0.0.0.0:port" choice.
// The server runs until the process exits.
func Serve(addr string, live *Live) (string, error) {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	expvarOnce.Do(func() {
		expvar.Publish("cmpsim", expvar.Func(func() any {
			live.mu.Lock()
			defer live.mu.Unlock()
			out := map[string]any{}
			for p, v := range live.runs {
				out[p] = map[string]any{
					"workload": v.Workload, "cycle": v.Sample.Cycle, "phase": v.Sample.Phase,
					"refs": v.Sample.Refs, "events": v.Sample.Events,
					"queue_depth": v.Sample.QueueDepth, "mshr_pending": v.Sample.MSHRPending,
				}
			}
			return out
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/", live.heatmap)
	mux.HandleFunc("/metrics", live.metrics)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
