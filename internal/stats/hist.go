package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Histogram records latency samples (nanoseconds) in logarithmic buckets
// with bounded relative error, plus exact min/max/sum, so the harness can
// extract medians, averages, tails, and full CDFs cheaply.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

// bucketsPerOctave controls resolution: 16 sub-buckets per power of two
// bounds relative error to ~4%.
const bucketsPerOctave = 16

func bucketIndex(v int64) int {
	if v < 1 {
		v = 1
	}
	// Position = octave*bucketsPerOctave + fraction within octave.
	oct := 63 - bits.LeadingZeros64(uint64(v))
	if oct == 0 {
		return 0 // v == 1
	}
	frac := (uint64(v) - (1 << uint(oct))) * bucketsPerOctave >> uint(oct)
	return oct*bucketsPerOctave + int(frac)
}

// bucketLow returns the inclusive lower bound of bucket i.
func bucketLow(i int) int64 {
	oct := i / bucketsPerOctave
	frac := i % bucketsPerOctave
	if oct == 0 {
		return 1
	}
	base := int64(1) << uint(oct)
	return base + base*int64(frac)/bucketsPerOctave
}

// bucketHigh returns the exclusive upper bound of bucket i.
func bucketHigh(i int) int64 { return bucketLow(i + 1) }

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, max: math.MinInt64}
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	idx := bucketIndex(v)
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+16)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// BitLenBuckets folds each octave's sub-buckets into one bucket per bit
// length: out[b] counts the samples v with bits.Len64(v) == b, i.e.
// 2^(b-1) ≤ v < 2^b. Samples ≤ 1 share bucket 0 and all count in out[1],
// so out[0] stays 0. It is the one log2 encoding in the tree: loadgen's
// lat_hist and the telemetry dump are both built from it.
func (h *Histogram) BitLenBuckets() (out [64]uint64) {
	for i, c := range h.counts {
		if c > 0 {
			out[i/bucketsPerOctave+1] += c
		}
	}
	return out
}

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the approximate q-quantile (0 ≤ q ≤ 1), interpolating
// linearly within the winning bucket: the target rank's position among the
// bucket's samples picks a proportional point in [bucketLow, bucketHigh)
// instead of snapping to the bucket boundary, so quantiles move smoothly
// with q rather than in bucket-sized steps.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.total)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > target {
			lo, hi := bucketLow(i), bucketHigh(i)
			frac := (target - float64(cum)) / float64(c)
			v := lo + int64(frac*float64(hi-lo))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// Median returns the 0.5 quantile.
func (h *Histogram) Median() int64 { return h.Quantile(0.5) }

// CDF returns (value, cumulative fraction) points suitable for plotting.
func (h *Histogram) CDF() (values []int64, fractions []float64) {
	if h.total == 0 {
		return nil, nil
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		values = append(values, bucketLow(i))
		fractions = append(fractions, float64(cum)/float64(h.total))
	}
	return values, fractions
}

// Merge adds all samples of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.total == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Clone returns a deep copy of the histogram, suitable as a snapshot for
// windowed delta evaluation.
func (h *Histogram) Clone() *Histogram {
	cp := &Histogram{
		counts: append([]uint64(nil), h.counts...),
		total:  h.total,
		sum:    h.sum,
		min:    h.min,
		max:    h.max,
	}
	return cp
}

// DeltaSince returns a histogram holding only the samples recorded in h
// after the snapshot prev was taken. prev must be an earlier snapshot of
// the same histogram (e.g. from Clone); buckets that shrank are clamped to
// zero. The delta's min/max are approximated from its occupied bucket
// bounds, clamped to the live histogram's exact extremes.
func (h *Histogram) DeltaSince(prev *Histogram) *Histogram {
	d := NewHistogram()
	if prev == nil {
		return h.Clone()
	}
	d.counts = make([]uint64, len(h.counts))
	first, last := -1, -1
	for i, c := range h.counts {
		var old uint64
		if i < len(prev.counts) {
			old = prev.counts[i]
		}
		if c > old {
			d.counts[i] = c - old
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return d
	}
	if h.total > prev.total {
		d.total = h.total - prev.total
	}
	if h.sum > prev.sum {
		d.sum = h.sum - prev.sum
	}
	d.min = bucketLow(first)
	if d.min < h.min {
		d.min = h.min
	}
	d.max = bucketHigh(last) - 1
	if d.max > h.max {
		d.max = h.max
	}
	return d
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}

// Summary is a compact latency digest.
type Summary struct {
	Count    uint64
	MeanNs   float64
	MedianNs int64
	P99Ns    int64
	MaxNs    int64
	MinNs    int64
}

// Summarize extracts a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:    h.total,
		MeanNs:   h.Mean(),
		MedianNs: h.Median(),
		P99Ns:    h.Quantile(0.99),
		MaxNs:    h.Max(),
		MinNs:    h.Min(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus median=%.1fus p99=%.1fus max=%.1fus",
		s.Count, s.MeanNs/1e3, float64(s.MedianNs)/1e3, float64(s.P99Ns)/1e3, float64(s.MaxNs)/1e3)
}

// Percentile computes the p-th percentile (0–100) of a raw sample slice,
// used in tests where exact values matter; sorts a copy.
func Percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	cp := make([]int64, len(samples))
	copy(cp, samples)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(p / 100 * float64(len(cp)-1))
	return cp[idx]
}
