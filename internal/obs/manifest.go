package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// SchemaVersion is the manifest format this build writes. Any
// structural change to the JSON layout must bump it.
//
// v2 added the optional per-run "series" field (epoch time-series
// samples, see internal/telemetry). v3 added the optional "per_vm"
// run field (per-VM attribution: counters, energy breakdown,
// miss-latency histogram and percentiles). Older manifests are still
// decodable: every field kept its name and meaning, so a v1/v2 file
// reads as a v3 manifest with the newer data absent. v3 files written
// before the touch census was retired also carry a "census" run field
// and a census flag in the config; the decoder ignores both.
const SchemaVersion = 3

// minSchema is the oldest manifest format this build still reads.
const minSchema = 1

// CounterRecord is one named event counter. Counters are stored as an
// ordered list, not a map, so the registration order of the live
// stats.Set survives the round trip exactly.
type CounterRecord struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// MissClassRecord is one Figure 9b miss class.
type MissClassRecord struct {
	Class string `json:"class"`
	Count uint64 `json:"count"`
	Links uint64 `json:"links"`
}

// MissProfileRecord serializes proto.MissProfile with class names
// attached, so the JSON is self-describing.
type MissProfileRecord struct {
	Hits    uint64            `json:"hits"`
	Classes []MissClassRecord `json:"classes"`
}

// ClassEnergyRecord is one cache class of the Figure 8a breakdown.
type ClassEnergyRecord struct {
	Class string  `json:"class"`
	PJ    float64 `json:"pj"`
}

// BreakdownRecord serializes power.DynamicBreakdown in the fixed
// power.CacheClasses order. It is stored for downstream consumers and
// cross-checked on decode against a recomputation from the counters,
// so a hand-edited manifest cannot silently desynchronize the two.
type BreakdownRecord struct {
	Cache   []ClassEnergyRecord `json:"cache"`
	Link    float64             `json:"link_pj"`
	Routing float64             `json:"routing_pj"`
}

// VMRecord is one VM's attribution slice of a run (schema v3): the
// counters, network activity and energy charged to transactions whose
// requestor tile belonged to the VM, plus its miss-latency histogram
// and percentiles. Summed across VMs the counters are bounded by the
// run's global counters (unattributed cold paths make up the rest) —
// Result enforces that bound on decode.
type VMRecord struct {
	VM          int             `json:"vm"`
	Tiles       int             `json:"tiles"`
	Refs        uint64          `json:"refs"`
	Counters    []CounterRecord `json:"counters"`
	Flits       uint64          `json:"flits"`
	Routers     uint64          `json:"routers"`
	Breakdown   BreakdownRecord `json:"breakdown"`
	MissLatency sim.Hist        `json:"miss_latency"`
	P50         uint64          `json:"p50"`
	P99         uint64          `json:"p99"`
	P999        uint64          `json:"p999"`
}

// RunRecord is everything one simulation run produced: the full input
// configuration and every output counter, in a form that decodes back
// to a bit-identical core.Result.
type RunRecord struct {
	Workload     string             `json:"workload"`
	Protocol     string             `json:"protocol"`
	Config       core.Config        `json:"config"`
	Cycles       sim.Time           `json:"cycles"`
	Refs         uint64             `json:"refs"`
	Events       uint64             `json:"events"`
	Counters     []CounterRecord    `json:"counters"`
	Net          mesh.Stats         `json:"net"`
	MissProfile  MissProfileRecord  `json:"miss_profile"`
	MemReads     uint64             `json:"mem_reads"`
	DedupSavings float64            `json:"dedup_savings"`
	Energies     power.TileEnergies `json:"energies"`
	Breakdown    BreakdownRecord    `json:"breakdown"`
	// Series is present only for runs with core.Config.SampleEvery set
	// (schema v2+).
	Series *telemetry.Series `json:"series,omitempty"`
	// PerVM is present only for runs with core.Config.PerVM set
	// (schema v3+), one record per consolidated VM.
	PerVM []VMRecord `json:"per_vm,omitempty"`
}

// Manifest is the versioned top-level export: a header identifying the
// producing binary plus one RunRecord per simulation.
type Manifest struct {
	Schema   int    `json:"schema"`
	Tool     string `json:"tool"`
	Revision string `json:"revision"`
	Go       string `json:"go"`
	// Workloads preserves the sweep's workload order so a decoded
	// matrix renders figures with identical row order.
	Workloads []string    `json:"workloads"`
	Runs      []RunRecord `json:"runs"`
}

// New returns an empty manifest stamped with the schema version, the
// producing tool's name and the binary's git revision.
func New(tool string) *Manifest {
	return &Manifest{
		Schema:   SchemaVersion,
		Tool:     tool,
		Revision: Revision(),
		Go:       goVersion(),
	}
}

// FromResult converts one finished run into its record.
func FromResult(res *core.Result) RunRecord {
	r := RunRecord{
		Workload:     res.Config.Workload,
		Protocol:     res.Config.Protocol,
		Config:       res.Config,
		Cycles:       res.Cycles,
		Refs:         res.Refs,
		Events:       res.Events,
		Net:          res.Net,
		MemReads:     res.MemReads,
		DedupSavings: res.DedupSavings,
		Energies:     res.Energies,
		Series:       res.Series,
	}
	for _, name := range res.Counters.Names() {
		r.Counters = append(r.Counters, CounterRecord{Name: name, Value: res.Counters.Value(name)})
	}
	r.MissProfile.Hits = res.Profile.Hits
	for c := 0; c < int(proto.NumMissClasses); c++ {
		r.MissProfile.Classes = append(r.MissProfile.Classes, MissClassRecord{
			Class: proto.MissClassNames[c],
			Count: res.Profile.Count[c],
			Links: res.Profile.Links[c],
		})
	}
	for _, cls := range power.CacheClasses {
		r.Breakdown.Cache = append(r.Breakdown.Cache, ClassEnergyRecord{Class: cls, PJ: res.Breakdown.Cache[cls]})
	}
	r.Breakdown.Link = res.Breakdown.Link
	r.Breakdown.Routing = res.Breakdown.Routing
	for i := range res.PerVM {
		v := &res.PerVM[i]
		vr := VMRecord{
			VM: v.VM, Tiles: v.Tiles, Refs: v.Refs,
			Flits: v.Flits, Routers: v.Routers,
			MissLatency: v.MissLatency,
			P50:         v.P50, P99: v.P99, P999: v.P999,
		}
		for _, name := range v.Counters.Names() {
			vr.Counters = append(vr.Counters, CounterRecord{Name: name, Value: v.Counters.Value(name)})
		}
		for _, cls := range power.CacheClasses {
			vr.Breakdown.Cache = append(vr.Breakdown.Cache, ClassEnergyRecord{Class: cls, PJ: v.Breakdown.Cache[cls]})
		}
		vr.Breakdown.Link = v.Breakdown.Link
		vr.Breakdown.Routing = v.Breakdown.Routing
		r.PerVM = append(r.PerVM, vr)
	}
	return r
}

// Add appends a run to the manifest, registering its workload in
// sweep order on first sight.
func (m *Manifest) Add(res *core.Result) {
	seen := false
	for _, wl := range m.Workloads {
		if wl == res.Config.Workload {
			seen = true
			break
		}
	}
	if !seen {
		m.Workloads = append(m.Workloads, res.Config.Workload)
	}
	m.Runs = append(m.Runs, FromResult(res))
}

// FromMatrix converts a whole evaluation sweep, in workload-major,
// paper-protocol order.
func FromMatrix(tool string, mx *exp.Matrix) *Manifest {
	m := New(tool)
	for _, wl := range mx.Workloads {
		for _, p := range core.ProtocolNames {
			if res := mx.Results[wl][p]; res != nil {
				m.Add(res)
			}
		}
	}
	return m
}

// Result reconstructs the core.Result this record was made from. The
// counters, network stats, miss profile and energies are restored
// exactly; the dynamic-energy breakdown is recomputed from them
// through the same power.Dynamic path a live run uses and verified
// against the serialized breakdown, so decoded figures are
// bit-identical to live ones — or the decode fails loudly. The config
// must pass core.Config.Validate and name the run's own workload and
// protocol, and the run must have retired references over a nonzero
// number of cycles.
func (r *RunRecord) Result() (*core.Result, error) {
	if err := r.Config.Validate(); err != nil {
		return nil, fmt.Errorf("obs: %s/%s: %w", r.Workload, r.Protocol, err)
	}
	if r.Workload != r.Config.Workload || r.Protocol != r.Config.Protocol {
		return nil, fmt.Errorf("obs: %s/%s: run is labelled differently from its config (%s/%s)",
			r.Workload, r.Protocol, r.Config.Workload, r.Config.Protocol)
	}
	if r.Refs == 0 || r.Cycles == 0 {
		return nil, fmt.Errorf("obs: %s/%s: run retired %d refs in %d cycles; a finished run has both nonzero",
			r.Workload, r.Protocol, r.Refs, r.Cycles)
	}
	res := &core.Result{
		Config:       r.Config,
		Cycles:       r.Cycles,
		Refs:         r.Refs,
		Events:       r.Events,
		Counters:     &stats.Set{},
		Net:          r.Net,
		MemReads:     r.MemReads,
		DedupSavings: r.DedupSavings,
		Energies:     r.Energies,
		Series:       r.Series,
	}
	for _, c := range r.Counters {
		res.Counters.Add(c.Name, c.Value)
	}
	if s := r.Series; s != nil {
		for i := range s.Samples {
			if got := len(s.Samples[i].Counters); got != len(s.CounterNames) {
				return nil, fmt.Errorf("obs: %s/%s: series sample %d carries %d counters for %d counter names",
					r.Workload, r.Protocol, i, got, len(s.CounterNames))
			}
		}
	}
	res.Profile.Hits = r.MissProfile.Hits
	for _, mc := range r.MissProfile.Classes {
		idx := -1
		for c := 0; c < int(proto.NumMissClasses); c++ {
			if proto.MissClassNames[c] == mc.Class {
				idx = c
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("obs: %s/%s: unknown miss class %q", r.Workload, r.Protocol, mc.Class)
		}
		res.Profile.Count[idx] = mc.Count
		res.Profile.Links[idx] = mc.Links
	}
	res.Breakdown = power.Dynamic(res.Counters, res.Net, res.Energies)
	for _, ce := range r.Breakdown.Cache {
		if got := res.Breakdown.Cache[ce.Class]; got != ce.PJ {
			return nil, fmt.Errorf("obs: %s/%s: breakdown class %q = %g pJ does not match the counters (recomputed %g pJ)",
				r.Workload, r.Protocol, ce.Class, ce.PJ, got)
		}
	}
	if res.Breakdown.Link != r.Breakdown.Link || res.Breakdown.Routing != r.Breakdown.Routing {
		return nil, fmt.Errorf("obs: %s/%s: network breakdown does not match the counters", r.Workload, r.Protocol)
	}
	vmSum := map[string]uint64{}
	for i := range r.PerVM {
		vr := &r.PerVM[i]
		v := core.VMStat{
			VM: vr.VM, Tiles: vr.Tiles, Refs: vr.Refs,
			Counters: &stats.Set{},
			Flits:    vr.Flits, Routers: vr.Routers,
			MissLatency: vr.MissLatency,
			P50:         vr.P50, P99: vr.P99, P999: vr.P999,
		}
		for _, c := range vr.Counters {
			v.Counters.Add(c.Name, c.Value)
			vmSum[c.Name] += c.Value
		}
		v.Breakdown = power.Dynamic(v.Counters,
			mesh.Stats{FlitLinkCrossing: vr.Flits, RouterTraversals: vr.Routers}, r.Energies)
		for _, ce := range vr.Breakdown.Cache {
			if got := v.Breakdown.Cache[ce.Class]; got != ce.PJ {
				return nil, fmt.Errorf("obs: %s/%s: VM %d breakdown class %q = %g pJ does not match its counters (recomputed %g pJ)",
					r.Workload, r.Protocol, vr.VM, ce.Class, ce.PJ, got)
			}
		}
		if v.Breakdown.Link != vr.Breakdown.Link || v.Breakdown.Routing != vr.Breakdown.Routing {
			return nil, fmt.Errorf("obs: %s/%s: VM %d network breakdown does not match its counters", r.Workload, r.Protocol, vr.VM)
		}
		if vr.MissLatency.Percentile(0.99) != vr.P99 {
			return nil, fmt.Errorf("obs: %s/%s: VM %d p99 = %d does not match its histogram (recomputed %d)",
				r.Workload, r.Protocol, vr.VM, vr.P99, vr.MissLatency.Percentile(0.99))
		}
		res.PerVM = append(res.PerVM, v)
	}
	// The attribution is a partition of a slice of the globals: summed
	// across VMs no counter may exceed what the whole run counted (the
	// remainder is the unattributed cold-path share).
	for name, sum := range vmSum {
		if sum > res.Counters.Value(name) {
			return nil, fmt.Errorf("obs: %s/%s: per-VM counter %q sums to %d, exceeding the run total %d",
				r.Workload, r.Protocol, name, sum, res.Counters.Value(name))
		}
	}
	return res, nil
}

// Matrix reconstructs the full exp.Matrix. It fails if any
// (workload, protocol) cell of the declared workload set is missing,
// because every figure renderer iterates the complete matrix.
func (m *Manifest) Matrix() (*exp.Matrix, error) {
	mx := &exp.Matrix{
		Workloads: append([]string(nil), m.Workloads...),
		Results:   map[string]map[string]*core.Result{},
	}
	for i := range m.Runs {
		r := &m.Runs[i]
		res, err := r.Result()
		if err != nil {
			return nil, err
		}
		if mx.Results[r.Workload] == nil {
			mx.Results[r.Workload] = map[string]*core.Result{}
		}
		if mx.Results[r.Workload][r.Protocol] != nil {
			return nil, fmt.Errorf("obs: duplicate run for %s/%s", r.Workload, r.Protocol)
		}
		mx.Results[r.Workload][r.Protocol] = res
	}
	for _, wl := range mx.Workloads {
		for _, p := range core.ProtocolNames {
			if mx.Results[wl] == nil || mx.Results[wl][p] == nil {
				return nil, fmt.Errorf("obs: manifest is not a full matrix: missing %s/%s", wl, p)
			}
		}
	}
	return mx, nil
}

// Verify decodes every run record back into a result, exercising all
// integrity checks (valid configs, counter/breakdown consistency,
// known miss classes). It is the cheap "is this manifest usable" gate
// CI runs on exported files.
func (m *Manifest) Verify() error {
	if m.Schema < minSchema || m.Schema > SchemaVersion {
		return fmt.Errorf("obs: manifest schema v%d not supported (this build reads v%d..v%d)", m.Schema, minSchema, SchemaVersion)
	}
	for i := range m.Runs {
		if _, err := m.Runs[i].Result(); err != nil {
			return fmt.Errorf("obs: run %d: %w", i, err)
		}
	}
	return nil
}

// Encode writes the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile encodes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Decode reads a manifest, rejecting unknown schema versions before
// interpreting anything else.
func Decode(r io.Reader) (*Manifest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var head struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("obs: not a manifest: %w", err)
	}
	if head.Schema < minSchema || head.Schema > SchemaVersion {
		return nil, fmt.Errorf("obs: manifest schema v%d not supported (this build reads v%d..v%d)", head.Schema, minSchema, SchemaVersion)
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("obs: malformed manifest: %w", err)
	}
	return m, nil
}

// ReadFile decodes the manifest at path.
func ReadFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
