package sim

import "testing"

// TestHistBuckets checks the power-of-two bucketing contract: bucket 0
// holds zero, bucket i holds [2^(i-1), 2^i).
func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		h.Observe(v)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1}
	for i, n := range want {
		if h.Buckets[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, h.Buckets[i], n)
		}
	}
	if h.Count != 9 || h.Max != 1024 {
		t.Errorf("count/max = %d/%d, want 9/1024", h.Count, h.Max)
	}
	if got := h.Mean(); got != float64(0+1+2+3+4+7+8+1023+1024)/9 {
		t.Errorf("mean = %v", got)
	}
	var m Hist
	m.Merge(&h)
	m.Merge(&h)
	if m.Count != 18 || m.Buckets[3] != 4 || m.Max != 1024 {
		t.Errorf("merge wrong: %+v", m)
	}
}
