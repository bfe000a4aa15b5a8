package exp

import (
	"testing"

	"repro/internal/core"
)

// memCache is an in-memory ResultCache for exercising the cache path
// without the obs package (which imports exp).
type memCache struct {
	entries map[core.Config]*core.Result
}

func (m *memCache) Load(cfg core.Config) (*core.Result, bool, error) {
	res, ok := m.entries[cfg]
	return res, ok, nil
}

func (m *memCache) Store(res *core.Result) error {
	m.entries[res.Config] = res
	return nil
}

// TestRunConfigsCachedStats: the first pass misses everything and
// populates the cache; the second hits everything and simulates
// nothing.
func TestRunConfigsCachedStats(t *testing.T) {
	base := core.DefaultConfig()
	base.WarmupRefs = 400
	base.RefsPerCore = 200
	cfgs := []core.Config{base, base, base}
	cfgs[1].SampleEvery = 1000
	cfgs[2].Check = true
	cache := &memCache{entries: map[core.Config]*core.Result{}}
	ran, built := 0, 0
	_, cs, err := RunConfigs(cfgs, 1, cache, func(i int) { ran++ }, func(i int, s *core.System) { built++ })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 3 || built != 3 || cs.Hits != 0 || cs.Misses != 3 {
		t.Fatalf("cold pass: ran %d, built %d, stats %+v", ran, built, cs)
	}
	ran, built = 0, 0
	results, cs, err := RunConfigs(cfgs, 1, cache, func(i int) { ran++ }, func(i int, s *core.System) { built++ })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 || built != 0 || cs.Hits != 3 || cs.Misses != 0 {
		t.Fatalf("warm pass: ran %d, built %d, stats %+v", ran, built, cs)
	}
	for i, res := range results {
		if res != cache.entries[cfgs[i]] {
			t.Errorf("result %d did not come from the cache", i)
		}
	}
}
