package main

import (
	"math"
	"math/bits"
)

// hist is a fixed-size log-linear histogram of non-negative nanosecond
// values, in the style of HDR Histogram: each power-of-two octave is split
// into 2^subBits equal buckets, so a reported quantile is within
// 2^-(subBits+1) (under 1%) of a value actually recorded in its bucket. Its
// memory does not grow with the number of samples.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits  = 6
	subCount = 1 << subBits
	// histBuckets covers values up to 2^47 ns (~39 hours).
	histBuckets = (47 - subBits + 1) * subCount
)

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	shift := msb - subBits
	i := (shift+1)*subCount + int(uint64(v)>>shift) - subCount
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketRange returns bucket i's value range [lo, hi).
func bucketRange(i int) (lo, hi int64) {
	if i < subCount {
		return int64(i), int64(i) + 1
	}
	shift := i/subCount - 1
	lo = int64(i%subCount+subCount) << shift
	return lo, lo + int64(1)<<shift
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) as the midpoint
// of the bucket holding it, or 0 for an empty histogram.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)/2
		}
	}
	lo, hi := bucketRange(histBuckets - 1)
	return lo + (hi-lo)/2
}

// quantileMs is quantile in milliseconds.
func (h *hist) quantileMs(q float64) float64 { return float64(h.quantile(q)) / 1e6 }

// minGroup is the fewest samples a quantile is taken over in subQuantile.
const minGroup = 1000

// subQuantile is the median over sub-windows (or trials) of their
// q-quantiles, after merging adjacent ones until each group holds minGroup
// samples and at least ten beyond q; a short remainder joins the last
// group, and too few samples overall make one group of them all.
func subQuantile(subs []hist, q float64) float64 {
	need := max(uint64(math.Ceil(10/(1-q))), minGroup)
	var groups []hist
	var acc hist
	for i := range subs {
		acc.merge(&subs[i])
		if acc.n >= need {
			groups = append(groups, acc)
			acc = hist{}
		}
	}
	if len(groups) == 0 {
		return acc.quantileMs(q)
	}
	groups[len(groups)-1].merge(&acc)
	vals := make([]float64, len(groups))
	for i := range groups {
		vals[i] = groups[i].quantileMs(q)
	}
	return median(vals)
}
