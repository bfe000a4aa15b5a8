// Racy-workload stress fuzzing of the four coherence engines: high-
// conflict streams run under the shadow-memory checker and the stall
// rule (external test package so it can
// use the internal/check harness without an import cycle).
package proto_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/check"
)

var stressProtocols = []string{"directory", "dico", "providers", "arin"}

// stressSeeds returns how many seeds to sweep: 12 by default, more
// when STRESS_SEEDS is set (long local bug hunts).
func stressSeeds() int {
	if s := os.Getenv("STRESS_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 12
}

// TestStress sweeps seeded high-conflict streams over all four
// protocols concurrently, with the checker attached and the stall rule
// applied. Stream shape varies with the seed so the sweep covers
// single-block hammering through eviction-heavy working sets.
func TestStress(t *testing.T) {
	seeds := stressSeeds()
	for seed := 1; seed <= seeds; seed++ {
		blocks := []int{1, 2, 4, 8, 16, 48}[seed%6]
		writePct := []int{40, 60, 75}[seed%3]
		recs := check.ConflictStream(uint64(seed), 16, blocks, 700, writePct)
		for _, p := range stressProtocols {
			name := fmt.Sprintf("s%d-b%d-w%d/%s", seed, blocks, writePct, p)
			if _, err := check.RunRecord(p, recs, 16, 4, uint64(seed), false); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// stressGolden pins the serial-replay fingerprint of every default
// stress stream on every engine. The stress chip (16 tiles, 2-way
// coherence caches) reaches paths the full-system crosscheck golden
// never executes — mispredictions, home-owned supply, L2C$ recalls and
// DiCo-Arin's broadcast invalidation — so this golden is the
// bit-identity contract for refactors of those paths. Regenerate with
// CROSSCHECK_UPDATE=1 after an intentional behaviour change.
const stressGolden = "testdata/stress_fingerprints.json"

// TestStressParallel replays the seeded high-conflict streams on the
// sharded mini-chip under the concurrent RunParallel executor —
// shards 1/2/4/8, all four engines — and requires the replay
// fingerprint to match the same replay on one serial kernel exactly,
// and the serial replay to match the checked-in golden. The shadow
// checker cannot follow onto the lanes (it is hub-resident), so this
// leg leans on the differential gate instead: TestStress has already
// checked these exact streams under the shadow checker, and the
// fingerprint ties the parallel execution back to that checked run.
// The CI race leg runs this test under -race, which is what actually
// exercises the messageized engine handlers across lane goroutines.
func TestStressParallel(t *testing.T) {
	seeds := stressSeeds()
	if seeds > 6 && testing.Short() {
		seeds = 6
	}
	update := os.Getenv("CROSSCHECK_UPDATE") != ""
	golden := map[string]check.Fingerprint{}
	if !update {
		data, err := os.ReadFile(stressGolden)
		if err != nil {
			t.Fatalf("missing golden (run with CROSSCHECK_UPDATE=1 to capture): %v", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}
	for seed := 1; seed <= seeds; seed++ {
		blocks := []int{1, 2, 4, 8, 16, 48}[seed%6]
		writePct := []int{40, 60, 75}[seed%3]
		recs := check.ConflictStream(uint64(seed), 16, blocks, 700, writePct)
		for _, p := range stressProtocols {
			name := fmt.Sprintf("s%d-b%d-w%d/%s", seed, blocks, writePct, p)
			want, replayed := matchParallel(t, name, p, recs, uint64(seed), 1, 2, 4, 8)
			if !replayed {
				continue
			}
			if update {
				golden[name] = want
			} else if g, ok := golden[name]; ok && g != want {
				t.Errorf("%s serial fingerprint diverges from %s:\n got %+v\nwant %+v",
					name, stressGolden, want, g)
			} else if !ok && seed <= 12 {
				t.Errorf("%s: missing from %s", name, stressGolden)
			}
		}
	}
	if update {
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(stressGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stressGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", stressGolden)
	}
}

// TestStressParallelWide runs high-conflict streams over 256 or 512
// blocks, 16 to 32 per home bank, where the default streams touch at
// most 3. That is enough distinct blocks for the homes' stamp tables
// to reach their load limit and purge entries below the latency
// horizon, on lane goroutines as well as on the serial kernel. Each
// stream runs under the shadow checker, and its RunParallel replays on
// 2, 4 and 8 lanes must match the serial replay's fingerprint.
func TestStressParallelWide(t *testing.T) {
	for seed := 1; seed <= 4; seed++ {
		blocks := []int{256, 512}[seed%2]
		writePct := []int{40, 60, 75}[seed%3]
		recs := check.ConflictStream(uint64(seed), 16, blocks, 1500, writePct)
		for _, p := range stressProtocols {
			name := fmt.Sprintf("s%d-b%d-w%d/%s", seed, blocks, writePct, p)
			if _, err := check.RunRecord(p, recs, 16, 4, uint64(seed), false); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			matchParallel(t, name, p, recs, uint64(seed), 2, 4, 8)
		}
	}
}

// matchParallel replays recs on the 16-tile stress chip on one serial
// kernel, then under RunParallel on each lane count in shards, and
// reports every replay that fails or whose fingerprint differs from the
// serial one. It returns the serial fingerprint and whether the serial
// replay succeeded.
func matchParallel(t *testing.T, name, protocol string, recs []check.Ref, seed uint64, shards ...int) (check.Fingerprint, bool) {
	t.Helper()
	want, err := check.RunRecordSharded(protocol, recs, 16, 4, 0, seed)
	if err != nil {
		t.Errorf("%s serial: %v", name, err)
		return want, false
	}
	for _, n := range shards {
		got, err := check.RunRecordSharded(protocol, recs, 16, 4, n, seed)
		if err != nil {
			t.Errorf("%s parallel shards=%d: %v", name, n, err)
		} else if got != want {
			t.Errorf("%s parallel shards=%d fingerprint diverges:\n got %+v\nwant %+v", name, n, got, want)
		}
	}
	return want, true
}

// FuzzStress lets the fuzzer mutate the raw reference stream. Every
// byte pair decodes to one reference; all four protocols must run the
// stream without checker, stall, deadlock or invariant errors, and
// the RunParallel replay must stay fingerprint-identical to the serial
// replay on every input. Wide seeds (check.DecodeStream) reach L2,
// L2C$ and directory-cache evictions and stamp-table purges.
func FuzzStress(f *testing.F) {
	f.Add([]byte{0x80, 0x01, 0x01, 0x01, 0x82, 0x41, 0x03, 0x01})
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(encodeStream(check.ConflictStream(seed, 16, 4, 64, 60), false))
	}
	for seed := uint64(1); seed <= 2; seed++ {
		f.Add(encodeStream(check.ConflictStream(seed, 16, 8*48, 256, 60), true))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024] // bound per-input cost
		}
		recs := check.DecodeStream(data, 16, 48)
		if len(recs) == 0 {
			return
		}
		for _, p := range stressProtocols {
			if _, err := check.RunRecord(p, recs, 16, 4, 7, false); err != nil {
				t.Errorf("%s: %v", p, err)
			}
			matchParallel(t, p, p, recs, 7, 4)
		}
	})
}

// encodeStream is check.DecodeStream's inverse for the fuzz seeds on 16
// tiles and 48 blocks: a wide stream's block b lands in range b/48 of
// eight, its first record in the upper four (the wide flag).
func encodeStream(recs []check.Ref, wide bool) []byte {
	data := make([]byte, 0, 2*len(recs))
	for i, r := range recs {
		b0 := byte(r.Tile)
		if wide {
			k := byte(r.Addr / 48)
			if i == 0 {
				k |= 4
			}
			b0 |= k << 4
		}
		if r.Write {
			b0 |= 0x80
		}
		data = append(data, b0, byte(r.Addr%48)|byte(r.Gap)<<6)
	}
	return data
}
