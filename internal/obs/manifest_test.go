package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// smallConfig is a fast-but-representative run for round-trip tests.
func smallConfig(protocol string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = protocol
	cfg.RefsPerCore = 400
	cfg.WarmupRefs = 800
	return cfg
}

// requireSameResult asserts that a decoded result is bit-identical to
// the live one in every field the figures consume.
func requireSameResult(t *testing.T, label string, live, decoded *core.Result) {
	t.Helper()
	if live.Cycles != decoded.Cycles || live.Refs != decoded.Refs || live.Events != decoded.Events {
		t.Errorf("%s: cycles/refs/events differ: %d/%d/%d vs %d/%d/%d",
			label, live.Cycles, live.Refs, live.Events, decoded.Cycles, decoded.Refs, decoded.Events)
	}
	ln, dn := live.Counters.Names(), decoded.Counters.Names()
	if !reflect.DeepEqual(ln, dn) {
		t.Fatalf("%s: counter names differ:\n%v\n%v", label, ln, dn)
	}
	for _, name := range ln {
		if lv, dv := live.Counters.Value(name), decoded.Counters.Value(name); lv != dv {
			t.Errorf("%s: counter %s = %d vs %d", label, name, lv, dv)
		}
	}
	if live.Net != decoded.Net {
		t.Errorf("%s: network stats differ", label)
	}
	if live.Profile != decoded.Profile {
		t.Errorf("%s: miss profiles differ", label)
	}
	if live.Energies != decoded.Energies {
		t.Errorf("%s: energies differ:\n%+v\n%+v", label, live.Energies, decoded.Energies)
	}
	if !reflect.DeepEqual(live.Breakdown, decoded.Breakdown) {
		t.Errorf("%s: breakdowns differ:\n%+v\n%+v", label, live.Breakdown, decoded.Breakdown)
	}
	if live.MemReads != decoded.MemReads || live.DedupSavings != decoded.DedupSavings {
		t.Errorf("%s: memory stats differ", label)
	}
	if live.Performance() != decoded.Performance() {
		t.Errorf("%s: performance %v vs %v", label, live.Performance(), decoded.Performance())
	}
	if live.Config != decoded.Config {
		t.Errorf("%s: configs differ:\n%+v\n%+v", label, live.Config, decoded.Config)
	}
}

// TestManifestRoundTrip encodes one run per protocol and requires the
// decoded result to be bit-identical.
func TestManifestRoundTrip(t *testing.T) {
	for _, p := range core.ProtocolNames {
		live, err := core.Run(smallConfig(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		m := New("test")
		m.Add(live)
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", p, err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", p, err)
		}
		if back.Schema != SchemaVersion || len(back.Runs) != 1 {
			t.Fatalf("%s: decoded header wrong: schema %d, %d runs", p, back.Schema, len(back.Runs))
		}
		decoded, err := back.Runs[0].Result()
		if err != nil {
			t.Fatalf("%s: reconstruct: %v", p, err)
		}
		requireSameResult(t, p, live, decoded)
	}
}

// TestManifestSchemaMismatch requires decoding to reject unknown
// schema versions before interpreting the rest of the file.
func TestManifestSchemaMismatch(t *testing.T) {
	m := New("test")
	m.Schema = SchemaVersion + 1
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Decode(&buf)
	if err == nil {
		t.Fatalf("decoding a v%d manifest succeeded; want schema rejection", SchemaVersion+1)
	}
	want := fmt.Sprintf("schema v%d", SchemaVersion+1)
	if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("v%d", SchemaVersion)) {
		t.Errorf("unhelpful schema error: %v", err)
	}
	if err := m.Verify(); err == nil {
		t.Error("Verify accepted a mismatched schema version")
	}
}

// TestManifestReadsV1 requires this build to keep decoding schema-v1
// manifests: v2 only added the optional "series" field, so a v1 file
// must read as a v2 manifest with no series data.
func TestManifestReadsV1(t *testing.T) {
	cfg := smallConfig("dico")
	live, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := New("test")
	m.Add(live)
	m.Schema = 1 // what a previous-generation binary would have written
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("v1 manifest no longer decodes: %v", err)
	}
	if err := back.Verify(); err != nil {
		t.Fatalf("v1 manifest fails verification: %v", err)
	}
	decoded, err := back.Runs[0].Result()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "v1", live, decoded)
	if decoded.Series != nil {
		t.Error("v1 manifest produced series data out of nowhere")
	}
}

// TestManifestReadsCheckedInV3 pins compatibility with a manifest an
// older build wrote: the checked-in v3 file still carries the retired
// "census" run and config fields, which must be ignored while every
// run passes the integrity checks and keeps its per-VM attribution.
func TestManifestReadsCheckedInV3(t *testing.T) {
	m, err := ReadFile("testdata/manifest_v3.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != 3 || len(m.Runs) == 0 {
		t.Fatalf("decoded header wrong: schema %d, %d runs", m.Schema, len(m.Runs))
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := range m.Runs {
		if len(m.Runs[i].PerVM) == 0 {
			t.Errorf("run %d (%s): per-VM attribution lost", i, m.Runs[i].Protocol)
		}
	}
}

// TestManifestIgnoresLegacyRunProfile pins compatibility with
// manifests written by builds that had a kernel dispatch profiler: a
// run carrying a "run_profile" block (kernel dispatch counts, a
// miss-latency histogram, phase timers) and "Profile": true in its
// config must still decode and verify. The fields are injected here so the
// checked-in fixture stays as an older build wrote it.
func TestManifestIgnoresLegacyRunProfile(t *testing.T) {
	data, err := os.ReadFile("testdata/manifest_v3.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // keep every counter and float exactly as written
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	run := raw["runs"].([]any)[0].(map[string]any)
	run["config"].(map[string]any)["Profile"] = true
	run["run_profile"] = map[string]any{
		"Kernel": map[string]any{
			"DispatchedClosure": 1200, "DispatchedArg": 34000, "Scheduled": 35200,
			"QueueDepth": map[string]any{"Count": 35200, "Sum": 2000000, "Max": 97, "Buckets": []int{0, 3, 10}},
		},
		"MissLatency": map[string]any{"Count": 900, "Sum": 45000, "Max": 310, "Buckets": []int{0, 0, 0, 0, 0, 12}},
		"Phases": []any{
			map[string]any{"Name": "warmup", "WallNS": 81000000, "Cycles": 52000, "Events": 70000, "Refs": 51200},
			map[string]any{"Name": "measure", "WallNS": 40000000, "Cycles": 26000, "Events": 35200, "Refs": 25600},
		},
	}
	legacy, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("decode with a legacy run_profile: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify with a legacy run_profile: %v", err)
	}
	want, err := ReadFile("testdata/manifest_v3.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Runs {
		got, err := m.Runs[i].Result()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.Runs[i].Result()
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("run %d", i), ref, got)
	}
}

// TestManifestSeriesRoundTrip requires the v2 series field to survive
// the encode/decode round trip exactly.
func TestManifestSeriesRoundTrip(t *testing.T) {
	cfg := smallConfig("directory")
	cfg.SampleEvery = 500
	live, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live.Series == nil || len(live.Series.Samples) == 0 {
		t.Fatal("sampling produced no series")
	}
	m := New("test")
	m.Add(live)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := back.Runs[0].Result()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "series", live, decoded)
	if !reflect.DeepEqual(live.Series, decoded.Series) {
		t.Errorf("series differs after round trip:\nlive    %+v\ndecoded %+v", live.Series, decoded.Series)
	}
}

// TestManifestIntegrity requires a tampered counter to fail decoding:
// the breakdown cross-check must catch a manifest whose counters and
// serialized energies disagree.
func TestManifestIntegrity(t *testing.T) {
	res, err := core.Run(smallConfig("dico"))
	if err != nil {
		t.Fatal(err)
	}
	m := New("test")
	m.Add(res)
	for i, c := range m.Runs[0].Counters {
		if c.Name == "l1.tag.read" {
			m.Runs[0].Counters[i].Value += 1000
		}
	}
	if _, err := m.Runs[0].Result(); err == nil {
		t.Fatal("reconstructing a tampered run succeeded; want breakdown mismatch error")
	}
	if err := m.Verify(); err == nil {
		t.Fatal("Verify accepted a tampered run")
	}

	// A series sample whose counter vector does not match the counter
	// names cannot be read back, shorter or longer.
	cfg := smallConfig("dico")
	cfg.SampleEvery = 2000
	res, err = core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, resize := range []func([]uint64) []uint64{
		func(c []uint64) []uint64 { return []uint64{1} },
		func(c []uint64) []uint64 { return append(append([]uint64(nil), c...), 0) },
	} {
		m = New("test")
		m.Add(res)
		s := m.Runs[0].Series
		if s == nil || len(s.Samples) == 0 {
			t.Fatal("sampled run exported no series")
		}
		if _, err := m.Runs[0].Result(); err != nil {
			t.Fatalf("untampered sampled run: %v", err)
		}
		orig := s.Samples[0].Counters // shared with res.Series: restored below
		s.Samples[0].Counters = resize(orig)
		if _, err := m.Runs[0].Result(); err == nil || !strings.Contains(err.Error(), "counter names") {
			t.Errorf("sample with %d counters for %d names: err = %v, want a counter-names mismatch",
				len(s.Samples[0].Counters), len(s.CounterNames), err)
		}
		s.Samples[0].Counters = orig
	}
}

// TestManifestRejectsInvalidRuns requires Verify to refuse a run whose
// config could never have been simulated, whose label disagrees with
// its config, or which retired nothing: each is a one-field edit of an
// honest export that the counter checks alone would accept.
func TestManifestRejectsInvalidRuns(t *testing.T) {
	res, err := core.Run(smallConfig("providers"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*RunRecord)
		want   string
	}{
		{"zero tiles", func(r *RunRecord) { r.Config.Tiles = 0 }, "Tiles = 0"},
		{"areas over the limit", func(r *RunRecord) { r.Config.Areas = 64 }, "Areas = 64"},
		{"unknown protocol", func(r *RunRecord) { r.Config.Protocol = "bogus" }, `unknown protocol "bogus"`},
		{"protocol differs from config", func(r *RunRecord) { r.Protocol = "arin" }, "labelled differently"},
		{"nothing retired", func(r *RunRecord) { r.Refs, r.Cycles = 0, 0 }, "retired 0 refs in 0 cycles"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New("test")
			m.Add(res)
			if err := m.Verify(); err != nil {
				t.Fatalf("untampered run: %v", err)
			}
			tc.mutate(&m.Runs[0])
			if err := m.Verify(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Verify error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestMatrixRoundTripFigures runs a small sweep, exports it, decodes
// it, and requires every rendered figure to match the live matrix byte
// for byte — the zero-re-simulation guarantee cmd/tables -from relies
// on.
func TestMatrixRoundTripFigures(t *testing.T) {
	opt := exp.DefaultOptions()
	opt.Workloads = []string{"apache4x16p"}
	opt.Base.RefsPerCore = 400
	opt.Base.WarmupRefs = 800
	live, err := exp.Run(opt, nil)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := FromMatrix("test", live).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(); err != nil {
		t.Fatal(err)
	}
	decoded, err := back.Matrix()
	if err != nil {
		t.Fatal(err)
	}

	for name, render := range map[string]func(*exp.Matrix) string{
		"figure7":  func(m *exp.Matrix) string { return m.Figure7().String() },
		"figure8a": func(m *exp.Matrix) string { return m.Figure8a().String() },
		"figure8b": func(m *exp.Matrix) string { return m.Figure8b().String() },
		"figure9a": func(m *exp.Matrix) string { return m.Figure9a().String() },
		"figure9b": func(m *exp.Matrix) string { return m.Figure9b().String() },
		"hops":     func(m *exp.Matrix) string { return m.LinkAnalysis().String() },
	} {
		if l, d := render(live), render(decoded); l != d {
			t.Errorf("%s differs between live and decoded matrix:\n--- live\n%s\n--- decoded\n%s", name, l, d)
		}
	}
}

// TestMatrixMissingCell requires Matrix() to reject a manifest that
// does not cover the full workload x protocol grid.
func TestMatrixMissingCell(t *testing.T) {
	res, err := core.Run(smallConfig("arin"))
	if err != nil {
		t.Fatal(err)
	}
	m := New("test")
	m.Add(res)
	if _, err := m.Matrix(); err == nil {
		t.Fatal("Matrix() accepted a single-run manifest; want missing-cell error")
	} else if !strings.Contains(err.Error(), "missing") {
		t.Errorf("unhelpful missing-cell error: %v", err)
	}
}
