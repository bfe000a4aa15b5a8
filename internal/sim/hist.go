package sim

import "math/bits"

// Hist is a power-of-two bucketed histogram of uint64 samples.
// Bucket i counts samples v with bits.Len64(v) == i, i.e. bucket 0
// holds v == 0 and bucket i >= 1 holds v in [2^(i-1), 2^i). The
// bucketing is exact, cheap (one CLZ per sample) and needs no
// configuration, which is what a per-retire hot path can afford.
type Hist struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [65]uint64
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bits.Len64(v)]++
}

// Mean returns the sample mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Percentile returns an upper bound for the p-quantile (p in (0,1]):
// the inclusive upper edge of the first bucket whose cumulative count
// reaches ceil(p*Count), clamped to the observed Max. The answer
// depends only on the bucket counts, so it is deterministic and
// identical across executors for identical sample streams.
func (h *Hist) Percentile(p float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(p * float64(h.Count))
	if float64(rank) < p*float64(h.Count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum >= rank {
			if i == 0 {
				return 0
			}
			ub := uint64(1)<<uint(i) - 1
			if ub > h.Max {
				ub = h.Max
			}
			return ub
		}
	}
	return h.Max
}

// Merge adds other's samples into h.
func (h *Hist) Merge(other *Hist) {
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}
