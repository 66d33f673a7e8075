package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative int64 values
// (nanoseconds here): every power of two is cut into subBuckets equal
// steps, so a bucket is at most 1/subBuckets of its value wide and a
// percentile is off by under 1 %. Recording is a shift and an
// increment, with no allocation, so a client can afford it per request
// over millions of requests.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
)

func newHist() *hist {
	// Values below subBuckets get a bucket each; every octave above
	// adds subBuckets more.
	return &hist{counts: make([]uint64, (64-subBits+1)*subBuckets)}
}

func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)*subBuckets + int(v>>shift) - subBuckets
}

// bucketMid returns the value a bucket reports: the middle of its
// range.
func bucketMid(b int) float64 {
	if b < subBuckets {
		return float64(b)
	}
	shift := b/subBuckets - 1
	lo := int64(subBuckets+b%subBuckets) << shift
	return float64(lo) + float64(int64(1)<<shift-1)/2
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// quantile returns the value below which the share q of the recorded
// values lies; 0 on an empty histogram.
func (h *hist) quantile(q float64) float64 {
	rank := max(uint64(math.Ceil(q*float64(h.n))), 1)
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return 0
}

// median is the exact counterpart for a handful of float samples
// (per-round ratios, per-slice rates): the nearest-rank middle value.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
