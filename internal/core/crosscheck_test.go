package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// protoFingerprint is the bit-exact signature of one protocol run:
// every architectural counter the simulation produces, but nothing
// wall-clock dependent.
type protoFingerprint struct {
	Cycles   uint64            `json:"cycles"`
	Refs     uint64            `json:"refs"`
	Events   uint64            `json:"events"`
	MemReads uint64            `json:"mem_reads"`
	Counters map[string]uint64 `json:"counters"`
	Net      map[string]uint64 `json:"net"`
	Profile  map[string]uint64 `json:"miss_profile"`
}

const crosscheckGolden = "testdata/crosscheck_seed.json"

// fingerprintRun reduces a Result to its deterministic counters.
func fingerprintRun(res *Result) protoFingerprint {
	fp := protoFingerprint{
		Cycles:   uint64(res.Cycles),
		Refs:     res.Refs,
		Events:   res.Events,
		MemReads: res.MemReads,
		Counters: map[string]uint64{},
		Net:      map[string]uint64{},
		Profile:  map[string]uint64{},
	}
	for _, name := range res.Counters.Names() {
		fp.Counters[name] = res.Counters.Value(name)
	}
	// mesh.Stats and proto.MissProfile are flat uint64 structs; walk
	// them by field name so new fields fail loudly instead of silently
	// widening the fingerprint.
	rv := reflect.ValueOf(res.Net)
	for i := 0; i < rv.NumField(); i++ {
		fp.Net[rv.Type().Field(i).Name] = rv.Field(i).Uint()
	}
	pv := reflect.ValueOf(res.Profile)
	for i := 0; i < pv.NumField(); i++ {
		f := pv.Field(i)
		name := pv.Type().Field(i).Name
		if f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				fp.Profile[fmt.Sprintf("%s[%d]", name, j)] = f.Index(j).Uint()
			}
			continue
		}
		fp.Profile[name] = f.Uint()
	}
	return fp
}

// TestCrossCheckSeedFingerprint replays the default workload on all
// four protocols and compares every architectural counter against the
// fingerprint captured from the tree *before* the pooled
// transaction-table rewrite (run with CROSSCHECK_UPDATE=1 to
// regenerate after an intentional behaviour change). This is the
// old-vs-new cross-check: the table refactor must be bit-identical,
// not just test-passing.
func TestCrossCheckSeedFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("four full protocol runs")
	}
	got := map[string]protoFingerprint{}
	for _, p := range ProtocolNames {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.RefsPerCore = 400
		cfg.WarmupRefs = 800
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		got[p] = fingerprintRun(res)
	}

	if os.Getenv("CROSSCHECK_UPDATE") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(crosscheckGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crosscheckGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", crosscheckGolden)
		return
	}

	data, err := os.ReadFile(crosscheckGolden)
	if err != nil {
		t.Fatalf("missing golden (run with CROSSCHECK_UPDATE=1 to capture): %v", err)
	}
	var want map[string]protoFingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, p := range ProtocolNames {
		w, ok := want[p]
		if !ok {
			t.Errorf("%s: missing from golden", p)
			continue
		}
		g := got[p]
		if g.Cycles != w.Cycles || g.Refs != w.Refs || g.Events != w.Events || g.MemReads != w.MemReads {
			t.Errorf("%s: cycles/refs/events/mem_reads = %d/%d/%d/%d, want %d/%d/%d/%d",
				p, g.Cycles, g.Refs, g.Events, g.MemReads, w.Cycles, w.Refs, w.Events, w.MemReads)
		}
		diffMaps(t, p+" counter", g.Counters, w.Counters)
		diffMaps(t, p+" net", g.Net, w.Net)
		diffMaps(t, p+" miss_profile", g.Profile, w.Profile)
	}

	// Per-VM attribution is observation-only: replayed with it armed,
	// every run must still match the pre-instrumentation golden
	// bit-exactly (the per-VM banks fold back into the globals at
	// measure end).
	for _, p := range ProtocolNames {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.RefsPerCore = 400
		cfg.WarmupRefs = 800
		cfg.PerVM = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s instrumented: %v", p, err)
		}
		if len(res.PerVM) == 0 {
			t.Fatalf("%s instrumented: no per-VM records — instrumentation did not arm", p)
		}
		g, w := fingerprintRun(res), want[p]
		if g.Cycles != w.Cycles || g.Refs != w.Refs || g.Events != w.Events || g.MemReads != w.MemReads {
			t.Errorf("%s instrumented: cycles/refs/events/mem_reads = %d/%d/%d/%d, want %d/%d/%d/%d",
				p, g.Cycles, g.Refs, g.Events, g.MemReads, w.Cycles, w.Refs, w.Events, w.MemReads)
		}
		diffMaps(t, p+" instrumented counter", g.Counters, w.Counters)
		diffMaps(t, p+" instrumented net", g.Net, w.Net)
		diffMaps(t, p+" instrumented miss_profile", g.Profile, w.Profile)
	}
}

func diffMaps(t *testing.T, label string, got, want map[string]uint64) {
	t.Helper()
	for k, wv := range want {
		if gv, ok := got[k]; !ok {
			t.Errorf("%s %q: missing (want %d)", label, k, wv)
		} else if gv != wv {
			t.Errorf("%s %q = %d, want %d", label, k, gv, wv)
		}
	}
	for k, gv := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s %q = %d: not in golden", label, k, gv)
		}
	}
}
