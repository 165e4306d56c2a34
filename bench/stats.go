package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p % of the
// samples at or below it. Nearest rank never interpolates, so the
// result is always a latency some request really had. Zero for no
// samples.
func percentile(sorted []uint32, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return float64(sorted[rank-1])
}

// median returns the median of vs (mean of the middle pair for an even
// count) without reordering the caller's slice. Zero for no samples.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fullSlices is how many of n slices of sliceSec seconds a window of
// windowSec seconds filled completely. The last, partial slice is
// dropped: a short slice would read as a slow one.
func fullSlices(n int, sliceSec, windowSec float64) int {
	full := int(windowSec / sliceSec)
	if full > n {
		full = n
	}
	return full
}

// sliceRates turns the full slices' completion counts into rates (per
// second).
func sliceRates(counts []int64, sliceSec, windowSec float64) []float64 {
	full := fullSlices(len(counts), sliceSec, windowSec)
	out := make([]float64, 0, full)
	for _, c := range counts[:full] {
		out = append(out, float64(c)/sliceSec)
	}
	return out
}

// minSliceP99Samples is the sample count below which one slice's p99 is
// not used: the median over slices steadies the estimate, but each
// slice still needs a handful of samples beyond its own p99.
const minSliceP99Samples = 500

// slicePercentiles returns the median over the full slices of each
// slice's own median and p99 (nanoseconds), and the samples used. With
// no full slice at all the whole window is one slice.
func slicePercentiles(slices []latencies, sliceSec, windowSec float64) (n int, p50, p99 float64) {
	full := fullSlices(len(slices), sliceSec, windowSec)
	if full == 0 {
		var all latencies
		for i := range slices {
			all.merge(&slices[i])
		}
		slices, full = []latencies{all}, 1
	}
	var p50s, p99s []float64
	for i := range slices[:full] {
		l := &slices[i]
		if len(l.ns) == 0 {
			continue
		}
		l.sort()
		n += len(l.ns)
		p50s = append(p50s, percentile(l.ns, 50))
		if len(l.ns) >= minSliceP99Samples {
			p99s = append(p99s, percentile(l.ns, 99))
		}
	}
	return n, median(p50s), median(p99s)
}

// latencies accumulates one request class's round-trip times in
// nanoseconds. Samples are appended in place (the backing array is
// sized up front so the measured loop does not allocate) and sorted
// once, when the summary is asked for.
type latencies struct {
	ns []uint32
}

func (l *latencies) add(d int64) {
	if d < 0 {
		d = 0
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	l.ns = append(l.ns, uint32(d))
}

func (l *latencies) merge(o *latencies) { l.ns = append(l.ns, o.ns...) }

func (l *latencies) sort() { sort.Slice(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] }) }

// minP99Samples is the sample count below which a p99 is not reported:
// with fewer than 1 000 samples fewer than ten lie beyond it.
const minP99Samples = 1000

// summary returns the sample count, the median and the p99 in
// nanoseconds; p99 is zero when there are too few samples to carry it.
func (l *latencies) summary() (n int, p50, p99 float64) {
	n = len(l.ns)
	if n == 0 {
		return 0, 0, 0
	}
	l.sort()
	p50 = percentile(l.ns, 50)
	if n >= minP99Samples {
		p99 = percentile(l.ns, 99)
	}
	return n, p50, p99
}
